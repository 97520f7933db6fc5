"""Real-time target-voice enhancement for 48 kHz mono streams.

The engine extracts one enrolled speaker from a noisy multi-talker mixture:
a perceptual band frontend (32 triangular bands on the ERB-rate scale plus
pitch features, 68 dims per 10 ms frame), a pitch comb filter with per-band
strength control, a speaker embedder network, and a speaker-conditioned
recurrent enhancer producing band gains, pitch-filter strengths, and a
personalized VAD probability.
"""

__version__ = "0.1.0"

from targetvoice.audio import AudioBuffer, read_wav, write_wav
from targetvoice.frontend import (
    FEATURE_DIM,
    HOP,
    LOOKAHEAD_FRAMES,
    N_BANDS,
    SAMPLE_RATE,
    WINDOW,
    ErbFilterbank,
    FeatureStream,
    Frames,
    PitchEstimate,
    design_erb_filterbank,
    extract_features,
)
from targetvoice.pipeline import StreamingEnhancer, enhance_audio

__all__ = [
    "AudioBuffer",
    "ErbFilterbank",
    "FeatureStream",
    "Frames",
    "PitchEstimate",
    "StreamingEnhancer",
    "design_erb_filterbank",
    "enhance_audio",
    "extract_features",
    "read_wav",
    "write_wav",
    "FEATURE_DIM",
    "HOP",
    "LOOKAHEAD_FRAMES",
    "N_BANDS",
    "SAMPLE_RATE",
    "WINDOW",
]
