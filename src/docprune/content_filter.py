"""Content detector: per-token content probabilities and their binarization.

Two detector variants share one interface. The oracle reads ground-truth
patch labels from a synthetic document and returns exact {0, 1}
probabilities. The learned variant embeds each raw patch with a private
linear map (frozen, never shared with the encoder) and scores it with a
trainable two-layer sigmoid MLP.

Training uses plain full-batch gradient descent on weighted binary
cross-entropy. Blank background dominates document pages, so the positive
class is upweighted by the corpus negative/positive ratio by default;
without that the high-recall target stalls.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import weights_io
from .patching import PatchEmbed, flatten_patches, patch_embed_init
from .rng import Rng
from .synthdoc import LabeledImage
from .tensor import (FlopCounter, LossCurve, Mlp2, bce_loss, linear,
                     mlp2_backward, mlp2_forward, mlp2_init, one_blas_thread)

# the learned detector's feature and hidden widths; load_detector takes
# whatever widths a weight file declares
FEAT_DIM = 32
HIDDEN = 32


@dataclass
class DetectorModel:
    variant: str                      # "oracle" or "mlp"
    patch_size: int
    embed: PatchEmbed | None = None   # detector-private, frozen
    mlp: Mlp2 | None = None


def oracle_detector(patch_size: int) -> DetectorModel:
    return DetectorModel(variant="oracle", patch_size=patch_size)


def mlp_detector(seed: int, patch_size: int) -> DetectorModel:
    rng = Rng(seed).derive("detector")
    return DetectorModel(
        variant="mlp",
        patch_size=patch_size,
        embed=patch_embed_init(rng.derive("embed"), patch_size, FEAT_DIM),
        mlp=mlp2_init(rng.derive("mlp"), FEAT_DIM, HIDDEN, 1),
    )


def detector_features(model: DetectorModel, image: np.ndarray,
                      counter: FlopCounter | None = None) -> np.ndarray:
    """The frozen private embedding of every patch of an image."""
    flat = flatten_patches(image, model.patch_size)
    return linear(flat, model.embed.weight, model.embed.bias, counter)


def detect(model: DetectorModel, doc: LabeledImage,
           counter: FlopCounter | None = None) -> np.ndarray:
    """One content probability per patch token, as a 1-D float64 array."""
    if model.variant == "oracle":
        return doc.patch_labels(model.patch_size).astype(np.float64).ravel()
    feats = detector_features(model, doc.image, counter)
    probs, _ = mlp2_forward(feats, model.mlp, counter, sigmoid_out=True)
    return probs.ravel()


def binarize(p: np.ndarray, eps: float) -> np.ndarray:
    """p_i -> 1.0 if p_i >= eps else 0.0; the boundary value is kept."""
    return (p >= eps).astype(np.float64)


def _training_set(model: DetectorModel, corpus: list[LabeledImage]):
    feats = np.vstack([detector_features(model, d.image) for d in corpus])
    labels = np.concatenate(
        [d.patch_labels(model.patch_size).ravel() for d in corpus])
    return feats, labels.astype(np.float64).reshape(-1, 1)


def fit_mlp2(mlp: Mlp2, x: np.ndarray, y: np.ndarray, epochs: int, lr: float,
             pos_weight: float | str = 1.0) -> LossCurve:
    """Full-batch gradient descent on weighted BCE; updates mlp in place.

    The one training loop of both the detector and the IFM classifier.
    pos_weight "auto" weights positives by the negative/positive ratio of
    y (1.0 when y has no positives). Returns the per-epoch losses. The
    loss is looked up in this module: the benchmark's smoke test replaces
    content_filter.bce_loss to check that a non-finite loss fails a run.

    The loop holds numpy's OpenBLAS at one thread (tensor.one_blas_thread,
    restored on return or error) and runs the passes' elementwise row
    blocks on every core. Products stay whole: at one BLAS thread
    x.T @ dz1, a sum over every sample, rounds the same way on any
    machine, so the trained bytes depend on neither the core count nor
    the BLAS thread count.
    """
    if pos_weight == "auto":
        pos = float(y.sum())
        pos_weight = (y.size - pos) / pos if pos > 0 else 1.0
    curve = LossCurve()
    cache = None
    with one_blas_thread():
        for _ in range(epochs):
            # the last epoch's cache is spent: this pass writes over it
            pred, cache = mlp2_forward(x, mlp, sigmoid_out=True, spent=cache)
            curve.append(bce_loss(pred, y, pos_weight))
            g = mlp2_backward(cache, mlp, y, pos_weight)
            mlp.w1 -= lr * g["dw1"]
            mlp.b1 -= lr * g["db1"]
            mlp.w2 -= lr * g["dw2"]
            mlp.b2 -= lr * g["db2"]
    return curve


def train_detector(model: DetectorModel, corpus: list[LabeledImage],
                   epochs: int, lr: float,
                   pos_weight: float | str = "auto") -> tuple[DetectorModel, LossCurve]:
    """Fit the MLP head; the private embed stays frozen.

    Gradients are the analytic mlp2_backward values, so every update is
    covered by the finite-difference checks in the test suite.
    """
    if model.variant != "mlp":
        raise ValueError("only the mlp detector variant is trainable")
    x, y = _training_set(model, corpus)
    return model, fit_mlp2(model.mlp, x, y, epochs, lr, pos_weight)


def recall_precision(kept, truth) -> dict[str, float]:
    """Recall/precision of kept tokens against relevant ones.

    kept and truth are matching sequences of boolean masks, one pair per
    document; counts are summed over all pairs. With nothing relevant
    (or nothing kept) recall (or precision) is 1.0.
    """
    tp = fp = fn = 0
    for k, t in zip(kept, truth, strict=True):
        tp += int(np.sum(k & t))
        fp += int(np.sum(k & ~t))
        fn += int(np.sum(~k & t))
    return {"recall": tp / (tp + fn) if tp + fn else 1.0,
            "precision": tp / (tp + fp) if tp + fp else 1.0}


def evaluate_detector(model: DetectorModel, corpus: list[LabeledImage],
                      threshold: float) -> dict[str, float]:
    """Recall/precision of kept tokens against ground-truth patch labels."""
    return recall_precision(
        [binarize(detect(model, d), threshold).astype(bool)
         for d in corpus],
        [d.patch_labels(model.patch_size).ravel() for d in corpus])


def save_detector(path, model: DetectorModel) -> None:
    if model.variant != "mlp":
        raise ValueError("only mlp detector weights are serialisable")
    arrays = {
        "meta": np.array([model.patch_size, model.embed.dim], dtype=np.float64),
        "embed_w": model.embed.weight,
        "embed_b": model.embed.bias,
        "w1": model.mlp.w1,
        "b1": model.mlp.b1,
        "w2": model.mlp.w2,
        "b2": model.mlp.b2,
    }
    weights_io.write_weights(path, weights_io.KIND_DETECTOR, arrays)


def load_detector(path) -> DetectorModel:
    arrays = weights_io.read_model(
        path, weights_io.KIND_DETECTOR,
        ("meta", "embed_w", "embed_b", "w1", "b1", "w2", "b2"))
    weights_io.check_shapes(path, arrays, {"meta": (2,)})
    patch_size, feat = weights_io.meta_dims(path, arrays["meta"], 2)
    hidden = arrays["b1"].shape[:1]      # the one dim meta does not fix
    weights_io.check_shapes(path, arrays, {
        "embed_w": (patch_size * patch_size, feat), "embed_b": (feat,),
        "b1": hidden, "w1": (feat, *hidden), "w2": (*hidden, 1),
        "b2": (1,)})
    embed = PatchEmbed(patch_size, arrays["embed_w"], arrays["embed_b"])
    mlp = Mlp2(arrays["w1"], arrays["b1"], arrays["w2"], arrays["b2"])
    return DetectorModel("mlp", patch_size, embed, mlp)
