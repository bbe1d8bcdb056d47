"""Independent brute-force references used as test oracles.

Everything here is written with plain Python loops and math-module scalars
on purpose: it shares no code path with the package, so agreement between
the two is evidence, not tautology. Keep it slow and obvious.
"""

import math

import numpy as np

TWO_PI = 2.0 * math.pi


def ref_wrap(theta: float) -> float:
    wrapped = theta % TWO_PI
    if wrapped >= TWO_PI:
        wrapped = 0.0
    return wrapped


def ref_rotate(theta: float):
    c, s = math.cos(theta), math.sin(theta)
    return [[c, -s], [s, c]]


def ref_matmul2(a, b):
    return [
        [a[0][0] * b[0][0] + a[0][1] * b[1][0], a[0][0] * b[0][1] + a[0][1] * b[1][1]],
        [a[1][0] * b[0][0] + a[1][1] * b[1][0], a[1][0] * b[0][1] + a[1][1] * b[1][1]],
    ]


def ref_default_freqs(d_k: int):
    return [10000.0 ** (-l / d_k) for l in range(d_k)]


def ref_embed(vec, angles):
    """Rotate consecutive 2D pairs of a flat vector by per-pair angles."""
    out = [0.0] * len(vec)
    for l, angle in enumerate(angles):
        c, s = math.cos(angle), math.sin(angle)
        a, b = float(vec[2 * l]), float(vec[2 * l + 1])
        out[2 * l] = a * c - b * s
        out[2 * l + 1] = a * s + b * c
    return out


def ref_planar_angles(pos, n_pairs, freqs):
    """First ceil(n/2) pairs encode x, the rest y; both use the freqs prefix."""
    h1 = (n_pairs + 1) // 2
    x, y = float(pos[0]), float(pos[1])
    return [x * freqs[l] for l in range(h1)] + [y * freqs[l] for l in range(n_pairs - h1)]


def ref_bank_angles(variant, pos, heading, head, d_k, freqs, split=None, angle_freqs=None):
    """Per-pair rotation angles for one (token, head); None for plain."""
    heading = float(heading)
    if angle_freqs is None:
        heading_angles = [heading] * d_k
    else:
        heading_angles = [heading * float(angle_freqs[l]) for l in range(d_k)]
    if variant == "plain":
        return None
    if variant == "rope":
        return ref_planar_angles(pos, d_k, freqs)
    if variant == "drope-hbh":
        if head % 2 == 0:
            return ref_planar_angles(pos, d_k, freqs)
        return heading_angles
    if variant == "drope-ih":
        d_pos, _d_angle = split
        p_pos = d_pos // 2
        return ref_planar_angles(pos, p_pos, freqs) + heading_angles[: d_k - p_pos]
    raise ValueError(variant)


def ref_mlp3(rel, w1, b1, w2, b2=None):
    """Two-layer tanh MLP on a 3-vector, all loops; no ``b2``, no output bias."""
    hidden = []
    for j in range(w1.shape[1]):
        acc = float(b1[j])
        for i in range(3):
            acc += float(rel[i]) * float(w1[i, j])
        hidden.append(math.tanh(acc))
    out = []
    for j in range(w2.shape[1]):
        acc = float(b2[j]) if b2 is not None else 0.0
        for i in range(len(hidden)):
            acc += hidden[i] * float(w2[i, j])
        out.append(acc)
    return out


def ref_softmax(row):
    peak = max(row)
    exps = [math.exp(value - peak) for value in row]
    total = sum(exps)
    return [value / total for value in exps]


def ref_attention(
    variant,
    q, k, v,
    pos_q=None, head_q=None, pos_kv=None, head_kv=None,
    *,
    enc=None, split=None, angle_freqs=None, causal=False,
):
    """Two-loop scalar reference for every attention variant.

    ``q``/``k`` are (Nq|Nkv, H, 2*d_k) arrays, ``v`` is (Nkv, H, d_v).
    Returns (per_head, merged) numpy arrays assembled from python floats.
    """
    n_q, n_heads, width = q.shape
    n_kv = k.shape[0]
    d_k = width // 2
    d_v = v.shape[-1]
    scale = 1.0 / math.sqrt(d_k)
    freqs = ref_default_freqs(d_k)

    per_head = np.zeros((n_q, n_heads, d_v))
    for h in range(n_heads):
        for i in range(n_q):
            scores = []
            pairwise_v = []
            for j in range(n_kv):
                if variant == "rpe":
                    rel = [
                        float(pos_q[i][0]) - float(pos_kv[j][0]),
                        float(pos_q[i][1]) - float(pos_kv[j][1]),
                        ref_wrap(float(head_q[i]) - float(head_kv[j])),
                    ]
                    off_k = ref_mlp3(rel, enc.w1_k, enc.b1_k, enc.w2_k)
                    off_v = ref_mlp3(rel, enc.w1_v, enc.b1_v, enc.w2_v, enc.b2_v)
                    k_ij = [float(k[j, h, d]) + off_k[d] for d in range(width)]
                    v_ij = [float(v[j, h, d]) + off_v[d] for d in range(d_v)]
                    score = sum(float(q[i, h, d]) * k_ij[d] for d in range(width)) * scale
                    pairwise_v.append(v_ij)
                else:
                    angles_q = ref_bank_angles(
                        variant, pos_q[i] if pos_q is not None else None,
                        head_q[i] if head_q is not None else 0.0,
                        h, d_k, freqs, split, angle_freqs,
                    )
                    angles_k = ref_bank_angles(
                        variant, pos_kv[j] if pos_kv is not None else None,
                        head_kv[j] if head_kv is not None else 0.0,
                        h, d_k, freqs, split, angle_freqs,
                    )
                    qi = (
                        [float(q[i, h, d]) for d in range(width)]
                        if angles_q is None
                        else ref_embed(q[i, h], angles_q)
                    )
                    kj = (
                        [float(k[j, h, d]) for d in range(width)]
                        if angles_k is None
                        else ref_embed(k[j, h], angles_k)
                    )
                    score = sum(qi[d] * kj[d] for d in range(width)) * scale
                    pairwise_v.append([float(v[j, h, d]) for d in range(d_v)])
                if causal and j > i:
                    score = -math.inf
                scores.append(score)
            alpha = ref_softmax(scores)
            for d in range(d_v):
                per_head[i, h, d] = sum(alpha[j] * pairwise_v[j][d] for j in range(n_kv))
    merged = per_head.reshape(n_q, n_heads * d_v)
    return per_head, merged


def ref_linear(x, w, b=None):
    """Dense layer with loops; x is a flat list, w is (n_in, n_out)."""
    n_in, n_out = w.shape
    out = []
    for j in range(n_out):
        acc = float(b[j]) if b is not None else 0.0
        for i in range(n_in):
            acc += float(x[i]) * float(w[i, j])
        out.append(acc)
    return out


def ref_ffn(x, bw):
    hidden = [math.tanh(value) for value in ref_linear(x, bw.ffn_w1)]
    return ref_linear(hidden, bw.ffn_w2)


def ref_project_qkv(tokens, bw):
    """tokens (N, d_model) against (d_model, H, width) projections."""
    n = tokens.shape[0]
    _, n_heads, width_q = bw.w_q.shape
    d_v = bw.w_v.shape[-1]
    q = np.zeros((n, n_heads, width_q))
    k = np.zeros((n, n_heads, width_q))
    v = np.zeros((n, n_heads, d_v))
    for i in range(n):
        for h in range(n_heads):
            for w_idx in range(width_q):
                q[i, h, w_idx] = sum(
                    float(tokens[i, d]) * float(bw.w_q[d, h, w_idx])
                    for d in range(tokens.shape[1])
                )
                k[i, h, w_idx] = sum(
                    float(tokens[i, d]) * float(bw.w_k[d, h, w_idx])
                    for d in range(tokens.shape[1])
                )
            for w_idx in range(d_v):
                v[i, h, w_idx] = sum(
                    float(tokens[i, d]) * float(bw.w_v[d, h, w_idx])
                    for d in range(tokens.shape[1])
                )
    return q, k, v


def ref_attention_block(variant, tokens, poses, bw, split=None,
                        kv_tokens=None, kv_poses=None, causal=False):
    """tokens + FFN(W_o @ attention(tokens)) with scalar loops throughout."""
    q, k_self, v_self = ref_project_qkv(tokens, bw)
    if kv_tokens is None:
        k, v = k_self, v_self
        pos_kv, head_kv = (
            (poses.positions, poses.headings) if poses is not None else (None, None)
        )
    else:
        _, k, v = ref_project_qkv(kv_tokens, bw)
        pos_kv, head_kv = kv_poses.positions, kv_poses.headings
    pos_q, head_q = (
        (poses.positions, poses.headings) if poses is not None else (None, None)
    )
    _, merged = ref_attention(
        variant, q, k, v, pos_q, head_q, pos_kv, head_kv,
        enc=bw.enc, split=split, causal=causal,
    )
    out = np.zeros_like(tokens)
    for i in range(tokens.shape[0]):
        projected = ref_linear(merged[i], bw.w_o)
        delta = ref_ffn(projected, bw)
        for d in range(tokens.shape[1]):
            out[i, d] = float(tokens[i, d]) + delta[d]
    return out


def ref_sinusoidal_pe(n_steps, d_model):
    pe = np.zeros((n_steps, d_model))
    for t in range(n_steps):
        for i in range(0, d_model, 2):
            scale = math.exp(-math.log(10000.0) * i / d_model)
            pe[t, i] = math.sin(t * scale)
            pe[t, i + 1] = math.cos(t * scale)
    return pe


def fd_gradient(fn, x, h=1e-5):
    """Central finite differences of a scalar function, coordinate by coordinate."""
    x = np.asarray(x, dtype=np.float64)
    grad = np.zeros_like(x)
    flat = grad.reshape(-1)
    x_flat = x.reshape(-1)
    for index in range(x_flat.size):
        original = x_flat[index]
        x_flat[index] = original + h
        upper = fn(x)
        x_flat[index] = original - h
        lower = fn(x)
        x_flat[index] = original
        flat[index] = (upper - lower) / (2.0 * h)
    return grad
