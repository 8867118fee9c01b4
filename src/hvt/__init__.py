"""Desk-scale hierarchical vision transformer toolkit.

A numpy-backed autodiff engine, a four-stage patch-merging transformer
backbone, contrastive pre-training, regularized fine-tuning, and
calibration-aware evaluation, all verifiable on a CPU.
"""

from .tensor import RngStream, Tensor, no_grad
from .model import (AttentionRecord, HVTConfig, attention_rollout,
                    count_params, forward, init_params, param_shapes)
from .optim import (AdamWState, EmaState, FreezeMask, adamw_step,
                    clip_grad_norm, ema_swap_for_eval, ema_update,
                    layerwise_lr_factors, onecycle_lr, warmup_cosine_lr)
from .augment import FinetunePolicy, SimclrPolicy, ViewPair, simclr_augment
from .ssl import (PretrainSettings, cosine_sim, linear_probe, nt_xent_loss,
                  pretrain_loop)
from .finetune import (FinetuneSettings, combined_loss, cutmix, focal_loss,
                       finetune_loop, mixup, tta_predict)
from .metrics import (MetricsReport, PredictionSet, apply_temperature,
                      classification_metrics, ece, fit_temperature,
                      mcnemar_test, reliability_bins)
from .data import (ImageContainer, generate_synthetic, load_checkpoint,
                   load_model, save_checkpoint, stratified_split)
from .config import RunConfig

__version__ = "0.1.0"
