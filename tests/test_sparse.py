"""The CSR product that large sparse weight matrices use.

A ``WeightMatrix`` with at least ``_CSR_MIN_N`` agents and density at most
``_CSR_MAX_DENSITY`` keeps a CSR copy, and its products sum in another
order than the dense ones. These tests hold that path to the dense
``entries @`` form and the gap form within rounding, and hold the small
sizes to the dense path bit for bit.
"""

import hashlib
import importlib.util
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import opdyn as od
from opdyn.cli import main
from opdyn.rng import SplitMix64

from _trials import ALL_KINDS, gap_form_step, random_valid_matrix, trial_rng

ROOT = Path(__file__).resolve().parent.parent


def dense_form_step(x: np.ndarray, matrix: od.WeightMatrix, kind) -> np.ndarray:
    """The library's update with the product taken on the dense array."""
    f = kind.values(x)
    d = x - x[0]
    return np.clip(x + f * (matrix.entries @ d - d), x.min(), x.max())


def dense_stationary_weights(matrix: od.WeightMatrix, tol: float = 1e-12) -> np.ndarray:
    """``stationary_weights``' power iteration on the dense transpose."""
    w = matrix.entries
    c = np.full(matrix.n, 1.0 / matrix.n)
    for _ in range(200_000):
        image = w.T @ c
        if float(np.abs(image - c).max()) <= tol:
            return c
        c = image / image.sum()
    raise AssertionError("dense power iteration did not converge")


class TestCsrProduct:
    @settings(max_examples=40, deadline=None)
    @given(st.data())
    def test_step_and_stationary_weights_match_dense(self, data):
        n = data.draw(st.integers(500, 800), label="n")
        p = data.draw(st.floats(0.003, 0.02), label="edge probability")
        w = od.random_strongly_connected_matrix(
            n, SplitMix64(data.draw(st.integers(0, 2**64 - 1), label="seed")), p)
        assert w._csr is not None
        rng = trial_rng(40, data.draw(st.integers(0, 2**16), label="trial"))
        # a palette of a few values makes ties at the extremes common
        palette = [rng.uniform(-1.0, 1.0) for _ in range(1 + rng.randrange(8))]
        palette += [(-1.0, 0.0, 1.0)[rng.randrange(3)]]
        x = np.array([palette[rng.randrange(len(palette))] for _ in range(n)])
        kind = data.draw(st.one_of(
            st.sampled_from(ALL_KINDS),
            st.just(od.Constant(tuple(0.0 if rng.random() < 0.2 else rng.random()
                                      for _ in range(n))))), label="kind")

        out = od.step(x, w, kind)
        assert np.abs(out - dense_form_step(x, w, kind)).max() <= 1e-12
        assert np.abs(out - gap_form_step(x, w, kind)).max() <= 1e-12
        assert out.min() >= x.min() and out.max() <= x.max()
        stubborn = kind.values(x) == 0.0
        assert np.array_equal(out[stubborn], x[stubborn])
        consensus = np.full(n, palette[0])
        assert np.array_equal(od.step(consensus, w, kind), consensus)

        assert np.abs(od.stationary_weights(w) - dense_stationary_weights(w)).max() <= 1e-12

    def test_non_contiguous_input(self):
        generated = od.random_strongly_connected_matrix(600, trial_rng(42, 0), 0.005)
        entries = generated.entries
        w = od.WeightMatrix(np.asfortranarray(entries), generated.beta)  # column-major
        assert w._csr is not None
        v = np.linspace(-1.0, 1.0, 600)
        assert np.abs(w.matvec(v) - entries @ v).max() <= 1e-12
        assert np.abs(w.rmatvec(v) - entries.T @ v).max() <= 1e-12


class TestDensePathKept:
    def test_small_and_dense_matrices_stay_dense(self):
        for n in (3, 8, 30):
            assert random_valid_matrix(n, trial_rng(43, n))._csr is None
        # large, but denser than the threshold
        assert od.random_strongly_connected_matrix(400, trial_rng(43, 0), 0.1)._csr is None

    def test_products_are_the_dense_ones_bit_for_bit(self):
        w = random_valid_matrix(8, trial_rng(44, 0))
        v = np.array([trial_rng(44, 1).uniform(-1.0, 1.0) for _ in range(8)])
        assert np.array_equal(w.matvec(v), w.entries @ v)
        assert np.array_equal(w.rmatvec(v), w.entries.T @ v)


def _bench_workloads():
    spec = importlib.util.spec_from_file_location("workloads", ROOT / "bench" / "workloads.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # its dataclasses look their module up there
    spec.loader.exec_module(module)
    return module


# The benchmark's cli_session document (n = 30) at two seeds, and the sha256
# of what `opdyn simulate` writes for it, recorded before the CSR path existed.
CLI_SESSION_PINS = [
    (1, "b1a3ec0a21e80a479645e579a01cc0d3b97cc4441b136cde6a67eebd8f38ad40",
     "49ae07da541532bc88b5839c653c12b2f522d903155efc27b77eced5d453d7b1"),
    (7, "40dce039d2c6306d565345826b6ad132f3859d51784a870bb4e5ba80f244528d",
     "9cbeabcb3f91425491112a8a6a1c6cba76d7fd80760670cfa73f96625b655e15"),
]


@pytest.mark.parametrize("seed,summary_sha256,csv_sha256", CLI_SESSION_PINS)
def test_cli_session_outputs_are_unchanged(seed, summary_sha256, csv_sha256, tmp_path, capsys):
    (document,) = _bench_workloads().cli_session_documents(seed)
    path = tmp_path / "doc.json"
    path.write_text(document)
    assert main(["simulate", str(path), "--out", str(tmp_path)]) == 0
    summary = (tmp_path / "cli-session.summary.json").read_bytes()
    csv = (tmp_path / "cli-session.trajectory.csv").read_bytes()
    assert hashlib.sha256(summary).hexdigest() == summary_sha256
    assert hashlib.sha256(csv).hexdigest() == csv_sha256
