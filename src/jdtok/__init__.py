"""jdtok: math kernels and CLI for a low-frame-rate reversible tokenizer.

Turns continuous [channels, time] feature streams into packed integer token
streams and back, and scores reconstructions: block masking, density-adaptive
mixture gating with verified analytic gradients, finite scalar quantization,
mixed-radix token packing, EMA/collapse utilities, and the stage-1/stage-2
loss functions.
"""

from .config import CodecConfig, load_config, parse_config
from .daam import DaamParams, apply_gate, daam_gate, daam_gate_grad, daam_gate_vjp, gattn_modulate
from .ema import collapse_std, ema_update
from .errors import ConfigError, FormatError, ValidationError
from .fsq import (
    FsqLevels,
    fsq_boundaries,
    fsq_dequantize,
    fsq_indices,
    fsq_quantize,
    quantize_projected,
)
from .losses import (
    DiscriminatorOutputs,
    GanLosses,
    StftConfig,
    gan_losses,
    jepa_masked_mse,
    l1_loss,
    log_magnitude_l1,
    multi_res_stft,
    spectral_convergence,
    total_stage2,
)
from .masking import MaskConfig, generate_block_mask, generate_block_masks, masked_fraction
from .radix import (
    RadixScheme,
    TokenStream,
    build_scheme,
    pack_frames,
    pack_group,
    token_rate,
    unpack_frames,
    unpack_group,
)

__version__ = "0.1.0"
