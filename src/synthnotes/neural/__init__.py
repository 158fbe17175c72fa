"""Neural components: LSTM numerical core, the word-level LSTM language
model, and the character-level recurrent tagger. The core's functions are
used through `neural.core`."""

from .char_tagger import CharTagger, TruecaserConfig, train_char_classifier
from .core import DivergenceError
from .language_model import (
    LstmLmConfig,
    LstmLmModel,
    batched_note_nll,
    batchify,
    train_lstm_lm,
)

__all__ = [
    "CharTagger",
    "DivergenceError",
    "LstmLmConfig",
    "LstmLmModel",
    "TruecaserConfig",
    "batched_note_nll",
    "batchify",
    "train_char_classifier",
    "train_lstm_lm",
]
