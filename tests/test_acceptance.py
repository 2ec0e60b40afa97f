"""Acceptance gate: ten end-to-end checks, one printed verdict line each.

Each test computes its criterion, prints a single PASS/FAIL line to the
real terminal (bypassing capture), and then asserts. The refinement and
label-noise checks train real fold models and take a few minutes.
"""

import time
from fractions import Fraction

import numpy as np
import pytest

from emorefinery.classifier import TrainConfig
from emorefinery.config import ExperimentConfig
from emorefinery.datagen import SyntheticCorpusSpec, generate_synthetic_corpus, to_stacked_dataset
from emorefinery.decision import ForestConfig, predict_forest, train_forest
from emorefinery.evaluation import (confusion_from_predictions, unweighted_accuracy,
                                    weighted_accuracy)
from emorefinery.features import FrameSpec, SegmentSpec, log_mel_spectrogram, segment_span_ms
from emorefinery.manifest import write_synthetic_corpus
from emorefinery.network import (Architecture, ConvNet, batch_cross_entropy, cross_entropy,
                                 entropy, kl_divergence, softmax)
from emorefinery.pipeline import (cross_validated_predictions, generation_dir,
                                  run_experiment)
from emorefinery.refinery import foldout_purity_violations, next_targets, run_refinery
from emorefinery.representation import representations_for

# ---------------------------------------------------------------------------
# Frozen experiment constants. The refinement corpora and seeds below were
# selected by calibration runs before freezing; the margins they must clear
# are fixed by the checks themselves and do not move with reruns.

COLLAPSE_CORPUS = dict(n_classes=6, utterances_per_class=10, segments_range=(20, 20),
                       mixture_mode="blended", off_class_mass=0.48, noise_level=1.5,
                       utterance_noise_level=1.0, n_mels=32, seg_frames=32, seed=4)
COLLAPSE_TRAIN = dict(max_epochs=4, batch_size=128, architecture="compact",
                      early_stop_patience=3, validation_fraction=0.1)
COLLAPSE_FOLDS = 5
COLLAPSE_SEED = 11
COLLAPSE_RUNTIME_LIMIT_S = 900.0

NOISE_CORPUS = dict(n_classes=4, utterances_per_class=20, segments_range=(8, 10),
                    mixture_mode="blended", off_class_mass=0.30, noise_level=1.2,
                    label_noise=0.10, n_mels=32, seg_frames=32)
NOISE_TRAIN = dict(max_epochs=6, batch_size=128, architecture="compact",
                   early_stop_patience=3, validation_fraction=0.1)
NOISE_FOLDS = 5
NOISE_CONFIGS = ((21, 5), (23, 5))  # (corpus seed, master seed)
NOISE_FLOOR_PTS = -0.5
NOISE_WIN_PTS = 2.0


@pytest.fixture
def announce(capsys):
    def _announce(ok: bool, criterion: str, detail: str):
        with capsys.disabled():
            print(f"[{'PASS' if ok else 'FAIL'}] {criterion}: {detail}")
        assert ok, f"{criterion}: {detail}"
    return _announce


def dirichlet_distribution(rng, k):
    return rng.dirichlet(np.ones(k))


# --------------------------------------------------------------------- 1 ---

def oracle_log_mel(samples, rate, spec):
    """Direct-DFT + explicit-triangle reference, written from the formulas."""
    win = int(round(rate * spec.win_ms / 1000.0))
    hop = int(round(rate * spec.hop_ms / 1000.0))
    n_frames = (samples.size - win) // hop + 1
    n_bins = spec.fft_len // 2 + 1

    n = np.arange(spec.fft_len)
    k = np.arange(n_bins)
    dft_kernel = np.exp(-2j * np.pi * k[:, None] * n[None, :] / spec.fft_len)
    hann = 0.5 - 0.5 * np.cos(2.0 * np.pi * np.arange(win) / win)

    mel = lambda f: 2595.0 * np.log10(1.0 + f / 700.0)
    inv_mel = lambda m: 700.0 * (10.0 ** (m / 2595.0) - 1.0)
    edges = inv_mel(np.linspace(0.0, mel(rate / 2.0), spec.n_mels + 2))
    freqs = k * rate / spec.fft_len
    bank = np.zeros((spec.n_mels, n_bins))
    for i in range(spec.n_mels):
        lo, center, hi = edges[i], edges[i + 1], edges[i + 2]
        for j, f in enumerate(freqs):
            if lo < f < hi:
                w = (f - lo) / (center - lo) if f <= center else (hi - f) / (hi - center)
                bank[i, j] = w
        bank[i] /= bank[i].max()

    out = np.empty((spec.n_mels, n_frames))
    for t in range(n_frames):
        frame = np.zeros(spec.fft_len)
        frame[:win] = samples[t * hop:t * hop + win] * hann
        spectrum = dft_kernel @ frame
        power = spectrum.real ** 2 + spectrum.imag ** 2
        out[:, t] = np.log(np.maximum(bank @ power, 1e-10))
    return out


def test_criterion_01_dsp_oracle(announce):
    started = time.time()
    rng = np.random.default_rng(101)
    spec = FrameSpec()
    worst = 0.0
    for i in range(50):
        samples = rng.standard_normal(8000) * 0.1
        produced = log_mel_spectrogram(samples, 16000, spec).values
        reference = oracle_log_mel(samples, 16000, spec)
        assert produced.shape == reference.shape
        worst = max(worst, float(np.max(np.abs(produced - reference))))
    # log-domain absolute difference equals relative error of mel energies
    span = segment_span_ms(FrameSpec(), SegmentSpec())
    elapsed = time.time() - started
    ok = worst <= 1e-6 and span == 335.0 and elapsed < 60.0
    announce(ok, "criterion 1 (DSP oracle)",
             f"50 clips, max log-energy deviation {worst:.2e} <= 1e-06; "
             f"segment span {span:g} ms == 335 ms; runtime {elapsed:.1f}s < 60s")


# --------------------------------------------------------------------- 2 ---

def net_loss(net, x, t, loss):
    probs = np.maximum(softmax(net.forward(x)), 1e-300)
    ce = float(-np.sum(t * np.log(probs)) / x.shape[0])
    if loss == "ce":
        return ce
    tn = np.where(t > 0, t, 1.0)
    return ce + float(np.sum(t * np.log(tn)) / x.shape[0])


def test_criterion_02_loss_identity_and_gradients(announce):
    rng = np.random.default_rng(202)
    worst_identity = 0.0
    for _ in range(1000):
        k = int(rng.integers(2, 9))
        pred, target = dirichlet_distribution(rng, k), dirichlet_distribution(rng, k)
        gap = abs(kl_divergence(pred, target)
                  - (cross_entropy(pred, target) - entropy(target)))
        worst_identity = max(worst_identity, gap)

    arch = Architecture(name="tiny", conv_stages=((2,), (2,)), dtype="float64")
    net = ConvNet(arch, (16, 8), 4, np.random.default_rng(7))
    n_params = sum(p.size for p in net.params())
    x = rng.standard_normal((3, 16, 8))
    t = rng.dirichlet(np.ones(4), size=3)

    logits = net.forward(x, train=True)
    _, dlogits = batch_cross_entropy(logits, t)
    net.backward(dlogits)
    analytic = [g.copy() for g in net.grads()]

    worst_pair = 0.0
    worst_fd = 0.0
    for p, g in zip(net.params(), analytic):
        flat, grad = p.reshape(-1), g.reshape(-1)
        for i in range(flat.size):
            orig = flat[i]
            flat[i] = orig + 1e-5
            ce_up, kl_up = net_loss(net, x, t, "ce"), net_loss(net, x, t, "kl")
            flat[i] = orig - 1e-5
            ce_dn, kl_dn = net_loss(net, x, t, "ce"), net_loss(net, x, t, "kl")
            flat[i] = orig
            worst_pair = max(worst_pair,
                             abs((kl_up - kl_dn) - (ce_up - ce_dn)) / 2e-5)
            numeric = (ce_up - ce_dn) / 2e-5
            scale = max(abs(numeric), abs(grad[i]), 1e-4)
            worst_fd = max(worst_fd, abs(numeric - grad[i]) / scale)

    ok = worst_identity <= 1e-9 and worst_pair <= 1e-9 and worst_fd <= 1e-4 \
        and n_params <= 5000
    announce(ok, "criterion 2 (loss identity and gradients)",
             f"1000 pairs |KL-(CE-H)| <= {worst_identity:.2e}; KL-vs-CE parameter "
             f"gradients differ <= {worst_pair:.2e}; analytic vs central FD rel err "
             f"<= {worst_fd:.2e} on {n_params} params")


# --------------------------------------------------------------------- 3 ---

def test_criterion_03_pepr_combination(announce):
    # One utterance of one segment: its EP row, its class, its row offsets.
    combined = next_targets(np.array([[0.6, 0.1, 0.1, 0.2]]), [0], [0, 1], "pEPR")[0]
    exact = bool(np.array_equal(combined, np.array([0.8, 0.05, 0.05, 0.1])))

    rng = np.random.default_rng(303)
    valid = True
    min_hard_mass = 1.0
    for _ in range(10000):
        k = int(rng.integers(2, 9))
        pred = dirichlet_distribution(rng, k)
        hard_class = int(rng.integers(k))
        out = next_targets(pred[None], [hard_class], [0, 1], "pEPR")[0]
        valid &= bool(np.all(out >= 0.0) and abs(float(out.sum()) - 1.0) <= 1e-12)
        min_hard_mass = min(min_hard_mass, float(out[hard_class]))

    ok = exact and valid and min_hard_mass >= 0.5
    announce(ok, "criterion 3 (pEPR combination)",
             f"worked example exact: {exact}; 10000 pairs valid: {valid}; "
             f"min hard-class mass {min_hard_mass:.4f} >= 0.5")


# ----------------------------------------------------------------- 4 & 5 ---

@pytest.fixture(scope="session")
def collapse_runs():
    """sEPR and pEPR runs of the collapse corpus. Generation 1 is the same in
    every mode (test_refinery pins this), so pEPR loads sEPR's instead of
    training it again, and shares its fold-out record."""
    spec = SyntheticCorpusSpec(**COLLAPSE_CORPUS)
    train = TrainConfig(**COLLAPSE_TRAIN)
    out = {"data": to_stacked_dataset(generate_synthetic_corpus(spec), spec)}
    for mode in ("sEPR", "pEPR"):
        cfg = ExperimentConfig(generations=3, mode=mode, folds=COLLAPSE_FOLDS, train=train)
        started = time.time()
        if mode == "sEPR":
            result = list(run_refinery(out["data"], cfg, COLLAPSE_SEED))
        else:
            first = out["sEPR"][0]
            result = list(run_refinery(out["data"], cfg, COLLAPSE_SEED,
                                       load_generation=lambda t: first[1] if t == 1 else None))
            result[0] = first
        out[mode] = result  # (targets, eps, foldout) of each generation
        out[f"{mode}_entropies"] = [foldout.mean_entropy() for _, _, foldout in result]
        out[f"{mode}_elapsed"] = time.time() - started
    return out


def test_criterion_04_sepr_collapse(collapse_runs, announce):
    e1, _, e3 = collapse_runs["sEPR_entropies"]
    target = 0.8 * np.log(6.0)
    segments_per_utterance = np.diff(collapse_runs["data"].offsets)
    n_utts = len(segments_per_utterance)
    n_segs = segments_per_utterance.min()
    elapsed = collapse_runs["sEPR_elapsed"]
    ok = (n_utts >= 60 and n_segs >= 20 and e3 >= e1 and e3 >= target
          and elapsed < COLLAPSE_RUNTIME_LIMIT_S)
    announce(ok, "criterion 4 (sEPR collapse)",
             f"{n_utts} utterances x >= {n_segs} segments; mean EP entropy "
             f"gen1 {e1:.4f} -> gen3 {e3:.4f} (>= gen1 and >= 0.8*ln6 = {target:.4f}); "
             f"runtime {elapsed:.0f}s < {COLLAPSE_RUNTIME_LIMIT_S:.0f}s")


def test_criterion_05_pepr_anti_collapse(collapse_runs, announce):
    data = collapse_runs["data"]
    row_labels = np.repeat(data.labels, np.diff(data.offsets))
    min_mass = 1.0
    for targets, _, _ in collapse_runs["pEPR"]:
        min_mass = min(min_mass, float(targets[np.arange(len(targets)), row_labels].min()))
    pepr3 = collapse_runs["pEPR_entropies"][2]
    sepr3 = collapse_runs["sEPR_entropies"][2]
    ok = min_mass >= 0.5 and pepr3 < sepr3
    announce(ok, "criterion 5 (pEPR anti-collapse)",
             f"min hard-class target mass across 3 generations {min_mass:.4f} >= 0.5; "
             f"gen3 entropy pEPR {pepr3:.4f} < sEPR {sepr3:.4f}")


# --------------------------------------------------------------------- 6 ---

@pytest.fixture(scope="session")
def noise_runs():
    results = []
    train = TrainConfig(**NOISE_TRAIN)
    for corpus_seed, master_seed in NOISE_CONFIGS:
        spec = SyntheticCorpusSpec(seed=corpus_seed, **NOISE_CORPUS)
        generated = generate_synthetic_corpus(spec)
        clean = np.array([u.label for u in generated])
        data = to_stacked_dataset(generated, spec)

        def clean_wa(eps):
            preds = cross_validated_predictions(
                data, representations_for(eps, data.offsets),
                ForestConfig(n_trees=100), NOISE_FOLDS, master_seed, master_seed)
            return weighted_accuracy(confusion_from_predictions(clean, preds, data.class_names))

        # The mode-none baseline is generation 1, which is the same in every mode.
        (_, baseline, _), (_, pepr, _) = run_refinery(
            data, ExperimentConfig(generations=2, mode="pEPR", folds=NOISE_FOLDS, train=train),
            master_seed)
        results.append({
            "config": (corpus_seed, master_seed),
            "flips": int(np.count_nonzero(clean != data.labels)),
            "baseline_wa": clean_wa(baseline),
            "pepr_wa": clean_wa(pepr),
        })
    return results


def test_criterion_06_direction_of_improvement(noise_runs, announce):
    deltas = [100.0 * (r["pepr_wa"] - r["baseline_wa"]) for r in noise_runs]
    floor_ok = all(d >= NOISE_FLOOR_PTS for d in deltas)
    win_ok = any(d >= NOISE_WIN_PTS for d in deltas)
    detail = "; ".join(
        f"corpus {r['config'][0]}/seed {r['config'][1]} ({r['flips']} flips): "
        f"baseline WA {r['baseline_wa']:.4f}, pEPR gen2 WA {r['pepr_wa']:.4f} "
        f"({d:+.1f} pts)" for r, d in zip(noise_runs, deltas))
    ok = floor_ok and win_ok
    announce(ok, "criterion 6 (direction of improvement)",
             f"{detail}; all >= {NOISE_FLOOR_PTS} pts and best >= +{NOISE_WIN_PTS} pts")


# --------------------------------------------------------------------- 7 ---

def test_criterion_07_metrics_hand_values(announce):
    cm_wa = np.array([[4, 1, 0], [1, 3, 1], [0, 1, 4]])
    wa_gap = abs(weighted_accuracy(cm_wa) - 11.0 / 15.0)

    cm_ua = np.array([[4, 1], [3, 3]])
    ua_gap = abs(unweighted_accuracy(cm_ua, ("a", "b")) - 0.65)

    rng = np.random.default_rng(707)
    worst_balance = 0.0
    for _ in range(20):
        k = int(rng.integers(2, 7))
        rows = []
        for _ in range(k):
            cuts = np.sort(rng.integers(0, 21, size=k - 1))
            rows.append(np.diff(np.concatenate(([0], cuts, [20]))))
        cm = np.array(rows)
        names = tuple(f"c{i}" for i in range(k))
        worst_balance = max(worst_balance,
                            abs(weighted_accuracy(cm) - unweighted_accuracy(cm, names)))

    ok = wa_gap <= 1e-15 and ua_gap <= 1e-15 and worst_balance <= 1e-12
    announce(ok, "criterion 7 (metrics hand values)",
             f"|WA - 11/15| = {wa_gap:.1e}; |UA - 0.65| = {ua_gap:.1e}; "
             f"balanced WA-UA gap <= {worst_balance:.1e}")


# --------------------------------------------------------------------- 8 ---

def oracle_gini(y, k):
    counts = np.bincount(y, minlength=k)
    return 1 - Fraction(int(np.sum(counts ** 2)), int(len(y)) ** 2)


def oracle_grow(x, y, k, depth, max_depth):
    counts = np.bincount(y, minlength=k)
    if np.count_nonzero(counts) <= 1 or len(y) < 2 or depth == max_depth:
        return ("leaf", counts)
    parent = oracle_gini(y, k)
    best = None
    for f in range(x.shape[1]):
        values = np.unique(x[:, f])
        for lo, hi in zip(values[:-1], values[1:]):
            thr = (lo + hi) / 2
            mask = x[:, f] <= thr
            n_l = int(mask.sum())
            imp = (n_l * oracle_gini(y[mask], k)
                   + (len(y) - n_l) * oracle_gini(y[~mask], k)) / len(y)
            cand = (imp, f, thr)
            if best is None or cand < best:
                best = cand
    if best is None or not best[0] < parent:
        return ("leaf", counts)
    f, thr = best[1], best[2]
    mask = x[:, f] <= thr
    return ("node", f, thr, oracle_grow(x[mask], y[mask], k, depth + 1, max_depth),
            oracle_grow(x[~mask], y[~mask], k, depth + 1, max_depth))


def same_tree(node, oracle):
    if oracle[0] == "leaf":
        return node.is_leaf and np.array_equal(node.histogram, oracle[1])
    return (not node.is_leaf and node.feature == oracle[1]
            and node.threshold == oracle[2]
            and same_tree(node.left, oracle[3]) and same_tree(node.right, oracle[4]))


def test_criterion_08_forest_oracle(announce):
    rng = np.random.default_rng(808)
    oracle_matches = 0
    trials = 25
    for _ in range(trials):
        n = int(rng.integers(5, 31))
        x = rng.integers(0, 5, size=(n, 3)).astype(np.float64)
        y = rng.integers(0, 3, size=n)
        while len(set(y.tolist())) < 2:
            y = rng.integers(0, 3, size=n)
        cfg = ForestConfig(n_trees=1, bootstrap=False, max_features=3, max_depth=2)
        forest = train_forest(x, y, cfg, ("a", "b", "c"), 0)
        oracle_matches += same_tree(forest.trees[0], oracle_grow(x, y, 3, 0, 2))

    x = rng.standard_normal((30, 3))
    y = rng.integers(0, 3, size=30)
    tree_cfg = ForestConfig(n_trees=1, bootstrap=False, max_features=3)
    tree = train_forest(x, y, tree_cfg, ("a", "b", "c"), 1)
    train_acc = float(np.mean(predict_forest(tree, x) == y))

    centers = np.array([[-3.0, -3.0], [3.0, 3.0]])
    labels = rng.integers(0, 2, size=200)
    points = centers[labels] + rng.standard_normal((200, 2)) * 0.5
    forest = train_forest(points[:100], labels[:100], ForestConfig(n_trees=50), ("neg", "pos"), 2)
    test_acc = float(np.mean(predict_forest(forest, points[100:]) == labels[100:]))

    ok = oracle_matches == trials and train_acc == 1.0 and test_acc >= 0.95
    announce(ok, "criterion 8 (forest oracle)",
             f"{oracle_matches}/{trials} depth-2 trees identical to exhaustive oracle; "
             f"unrestricted tree training accuracy {train_acc:.2f}; separable 2-class "
             f"held-out accuracy {test_acc:.2f} >= 0.95")


# --------------------------------------------------------------------- 9 ---

@pytest.fixture(scope="session")
def pipeline_twins(tmp_path_factory):
    base = tmp_path_factory.mktemp("acceptance_runs")
    spec = SyntheticCorpusSpec(n_classes=3, utterances_per_class=4,
                               segments_range=(3, 4), n_mels=8, seg_frames=4,
                               noise_level=0.4, seed=9)
    write_synthetic_corpus(base / "corpus", generate_synthetic_corpus(spec),
                           spec.class_names)
    cfg = ExperimentConfig(
        master_seed=5, mode="pEPR", generations=2, folds=3, eval_folds=3,
        segment=SegmentSpec(seg_frames=4, seg_hop_ms=40.0),
        train=TrainConfig(max_epochs=2, batch_size=32, architecture="tiny",
                          validation_fraction=0.2),
        forest=ForestConfig(n_trees=15))
    for name in ("a", "b"):
        run_experiment(base / "corpus", cfg, run_dir=base / name)
    return base


def test_criterion_09_determinism(pipeline_twins, announce):
    compared = []
    identical = True
    for rel in ("metrics.json", "generations/gen01/eps.csv", "generations/gen02/eps.csv",
                "generations/gen01/metrics.json", "generations/gen02/metrics.json"):
        same = ((pipeline_twins / "a" / rel).read_bytes()
                == (pipeline_twins / "b" / rel).read_bytes())
        compared.append(rel)
        identical &= same
    announce(identical, "criterion 9 (determinism)",
             f"two identical-config pipeline runs byte-identical across "
             f"{len(compared)} artifacts (EP CSVs and metrics reports)")


# -------------------------------------------------------------------- 10 ---

def test_criterion_10_foldout_purity(collapse_runs, pipeline_twins, announce):
    import json
    audited = 0
    violations = []
    for mode in ("sEPR", "pEPR"):
        for _, _, foldout in collapse_runs[mode]:
            violations += foldout_purity_violations(foldout, collapse_runs["data"])
            audited += 1
    for t in (1, 2):
        stored = json.loads(
            (generation_dir(pipeline_twins / "a", t) / "foldout.json").read_text())
        violations += stored["violations"]
        audited += 1
    ok = not violations
    announce(ok, "criterion 10 (fold-out purity)",
             f"{audited} generations audited, {len(violations)} violations")
