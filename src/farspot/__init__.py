"""Far-field wake-word toolkit.

Subpackages:
    simkit   - image-method room simulation and far-field signal synthesis
    featkit  - log-Mel filterbank features and frame stacking
    netcore  - LSTM-projection networks with hand-derived gradients
    criteria - training losses (CE, soft CE, CTC)
    kws      - CTC keyword spotting, confidence scoring, CA/FA evaluation
    pipeline - corpora, synthetic tasks, training orchestration
    cli      - command-line entry point
"""

__version__ = "0.1.0"
