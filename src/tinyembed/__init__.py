"""Desk-scale contrastive embedding models: matryoshka InfoNCE training,
activation-norm structured pruning, teacher-embedding distillation, and a
retrieval/STS/pair-classification evaluation harness."""

from .autodiff import Tensor, backward, grad_check, no_grad, primitive_set
from .data import (
    CLUSTERING,
    PAIR_CLASSIFICATION,
    RETRIEVAL,
    Batch,
    CanonicalSample,
    apply_instructions,
    cap_per_source,
    consolidate,
    consolidate_records,
    epoch_batches,
    make_batches,
    mine_hard_negatives,
    stats_report,
)
from .evaluation import EvalTask, ablation_distill, evaluate, mrl_sweep, ndcg_at_k, pair_accuracy, spearman
from .model import (
    EmbeddingModel,
    ModelConfig,
    embed_sequence,
    embed_text,
    embed_texts,
    forward_hidden,
    init_model,
    load_checkpoint,
    param_count,
    save_checkpoint,
)
from .pruning import ChannelNorms, PruneSpec, collect_activation_norms, prune_model, sliced_forward_oracle
from .tokenizer import EOS_ID, PAD_ID, VOCAB_SIZE, detokenize, tokenize
from .training import (
    LossConfig,
    OptimizerState,
    StagePlan,
    adamw_step,
    distill_loss,
    info_nce,
    matryoshka_info_nce,
    train_stage,
    truncate_and_renorm,
)

__version__ = "0.1.0"
