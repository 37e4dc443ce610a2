"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with ``pytest -s tests/test_acceptance.py`` to see the lines as they
complete. Every tolerance is pinned here; nothing is calibrated at runtime.
"""

import itertools
import math
from contextlib import contextmanager

import numpy as np
import pytest

from hgirr import (
    blow_up,
    build,
    complete_r_partite,
    degrees,
    direct_product,
    epsilon,
    random_r_partite,
    random_uniform,
    regularize,
    regularize_partitewise,
    s_measure,
    s_r_measure,
    single_edge,
    spectral_radius,
    symmetric_difference_size,
    union_edges,
    v_measure,
    validate_partition,
)
from hgirr.cli import main as cli_main
from hgirr.irregularity import bound_suite

CBRT2 = 2.0 ** (1.0 / 3.0)


@contextmanager
def criterion(num, label):
    try:
        yield
    except BaseException:
        print(f"[acceptance] criterion {num} ({label}): FAIL")
        raise
    print(f"[acceptance] criterion {num} ({label}): PASS")


def test_criterion_1_exact_eigenvalues():
    with criterion(1, "exact eigenvalues"):
        for r in (2, 3, 4, 5):
            assert abs(spectral_radius(single_edge(r)).rho - 1.0) <= 1e-9

        regular_cases = []
        for r, n in [(2, 5), (2, 6), (3, 5), (3, 6), (4, 6), (4, 7), (5, 6)]:
            H = build(r, n, list(itertools.combinations(range(1, n + 1), r)))
            regular_cases.append((H, math.comb(n - 1, r - 1)))
        for sizes in [(2, 2), (3, 3), (2, 2, 2), (3, 3, 3), (2, 2, 2, 2)]:
            H, _ = complete_r_partite(sizes)
            regular_cases.append((H, sizes[0] ** (len(sizes) - 1)))
        # disconnected but regular: three disjoint single edges
        regular_cases.append((build(3, 9, [[1, 2, 3], [4, 5, 6], [7, 8, 9]]), 1))

        for H, d in regular_cases:
            res = spectral_radius(H)
            assert res.converged
            assert abs(res.rho - d) <= 1e-9, (H, d, res.rho)


def test_criterion_2_closed_form_instance(two_path):
    with criterion(2, "closed-form two-edge instance"):
        res = spectral_radius(two_path)
        assert abs(res.rho - CBRT2) <= 1e-8
        assert abs(epsilon(two_path, res) - (CBRT2 - 1.2)) <= 1e-8
        assert s_measure(two_path) == 1.6
        v_expected = (2.0**1.5 + 4.0) / 5.0 - 1.2**1.5
        assert abs(v_measure(two_path) - v_expected) <= 1e-9


def test_criterion_3_blow_up_law():
    with criterion(3, "blow-up scaling law"):
        rng = np.random.default_rng(300)
        for i in range(50):
            r = 2 + i % 2
            n = int(rng.integers(r, 8))
            m = int(rng.integers(1, math.comb(n, r) + 1))
            H = random_uniform(n, m, r, rng)
            k = 2 + (i // 2) % 2
            base = spectral_radius(H).rho
            blown = spectral_radius(blow_up(H, k)).rho
            expected = k ** (r - 1) * base
            assert abs(blown - expected) / expected <= 1e-7, (i, r, n, m, k)


def test_criterion_4_direct_product_law():
    with criterion(4, "direct-product scaling law"):
        rng = np.random.default_rng(400)
        for i in range(50):
            n = int(rng.integers(3, 8))
            m = int(rng.integers(1, math.comb(n, 3) + 1))
            H = random_uniform(n, m, 3, rng)
            product = direct_product(H, single_edge(3))
            assert product.m == math.factorial(3) * H.m
            base = spectral_radius(H).rho
            got = spectral_radius(product).rho
            expected = math.factorial(2) * base
            assert abs(got - expected) / expected <= 1e-7, (i, n, m)


def test_criterion_5_fuzz_verification():
    with criterion(5, "fuzz verification via cmd_verify"):
        code = cli_main(
            [
                "verify",
                "--r", "2,3,4",
                "--n", "2:10",
                "--count", "1000",
                "--seed", "20260810",
            ]
        )
        assert code == 0

        partite_runs = [("2,2,2", 100, 1), ("1,2,3", 100, 2), ("2,4", 50, 3), ("3,3", 50, 4)]
        assert sum(count for _, count, _ in partite_runs) == 300
        for sizes, count, seed in partite_runs:
            code = cli_main(
                [
                    "verify",
                    "--partite", sizes,
                    "--count", str(count),
                    "--seed", str(seed),
                ]
            )
            assert code == 0, sizes


def test_criterion_6_equality_witnesses(two_path, two_path_partition):
    with criterion(6, "equality witnesses"):
        H, P = complete_r_partite([2, 2, 2])
        res = spectral_radius(H)
        assert abs(res.rho - 4.0) <= 1e-9
        assert abs(res.rho - 8.0 ** (2.0 / 3.0)) <= 1e-9
        size_upper = [c for c in bound_suite(H, res, P) if c.name == "size_upper"][0]
        assert size_upper.equality_expected
        assert abs(size_upper.slack) <= 1e-8

        res2 = spectral_radius(two_path)
        checks = bound_suite(two_path, res2, two_path_partition)
        gm = [c for c in checks if c.name == "edge_gm_upper"][0]
        assert gm.equality_expected
        assert abs(gm.slack) <= 1e-8
        t1 = [c for c in checks if c.name == "theorem1"][0]
        assert abs(t1.slack) <= 1e-8


def test_criterion_7_regularization_contract(star3):
    with criterion(7, "regularization contract"):
        rng = np.random.default_rng(700)
        for _ in range(200):
            r = int(rng.choice([2, 3, 4]))
            n = int(rng.integers(r, 11))
            m = int(rng.integers(0, math.comb(n, r) + 1))
            H = random_uniform(n, m, r, rng)
            out, trace = regularize(H)
            deg = degrees(out)
            assert out.n == H.n and out.m == H.m and out.r == H.r
            assert int(deg.max() - deg.min()) <= 1
            assert symmetric_difference_size(H, out) <= s_measure(H) + 1e-9
            assert s_measure(out) <= s_measure(H) + 1e-9
            assert trace.apply(H) == out

        _, star_trace = regularize(star3)
        assert len(star_trace) == 1

        size_pool = [(2, 2, 2), (1, 2, 3), (2, 3), (1, 3, 3)]
        for i in range(60):
            sizes = size_pool[i % len(size_pool)]
            m = int(rng.integers(0, math.prod(sizes) + 1))
            H, P = random_r_partite(sizes, m, rng)
            out, _ = regularize_partitewise(H, P)
            assert out.m == H.m
            assert validate_partition(out, P)
            deg = degrees(out)
            for members in P.classes:
                class_deg = [int(deg[v - 1]) for v in members]
                if class_deg:
                    assert max(class_deg) - min(class_deg) <= 1
            assert symmetric_difference_size(H, out) <= s_r_measure(H, P) + 1e-9


def test_criterion_8_weyl_property():
    with criterion(8, "Weyl subadditivity"):
        rng = np.random.default_rng(800)
        for _ in range(200):
            r = int(rng.choice([2, 3]))
            n = int(rng.integers(r, 9))
            cap = math.comb(n, r)
            H1 = random_uniform(n, int(rng.integers(0, cap + 1)), r, rng)
            H2 = random_uniform(n, int(rng.integers(0, cap + 1)), r, rng)
            rho_union = spectral_radius(union_edges(H1, H2)).rho
            rho_sum = spectral_radius(H1).rho + spectral_radius(H2).rho
            assert rho_union <= rho_sum + 1e-8


def test_criterion_9_determinism(capsys):
    with criterion(9, "cmd_verify byte determinism"):
        args = ["verify", "--r", "2,3", "--n", "3:8", "--count", "60", "--seed", "77"]
        outputs = []
        for _ in range(3):
            assert cli_main(args) == 0
            outputs.append(capsys.readouterr().out)
        assert outputs[0] == outputs[1]
        assert outputs[0] == outputs[2]
