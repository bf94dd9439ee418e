"""Acceptance gate: every criterion at its stated tolerance.

Each test prints one PASS/FAIL line.  Grids stay at desk scale (2D up to
1024 cells per side) and every criterion finishes in well under a minute.
"""

import json
import math

import numpy as np

from gmtlab.calculus import (
    abs_value,
    constant_function,
    from_expression,
    grad_l1,
    indicator_function,
    minkowski_steiner,
    mollify,
    pointwise_min,
    restrict_to_domain,
    shell_gradient_discrete,
    shell_mass,
    shell_mass_limit,
    total_variation,
)
from gmtlab.constants import LATTICE_SLACK_COEFF
from gmtlab.domains import (
    extract_boundary,
    make_annulus,
    make_ball,
    make_box,
    rasterize_polygon,
)
from gmtlab.hausdorff import build_partition, estimate_hm, partition_defect, unit_ball_volume
from gmtlab.inequalities import (
    check_brunn_minkowski,
    check_bv_bound,
    check_extended_sobolev,
    check_isoperimetric,
    check_mazya,
    check_mazya_l2,
    check_sobolev,
    iso_constant,
    paper_boundary_factor,
    proof_trace,
    quotient_search,
)
from gmtlab.suite import parse_suite_dict

from conftest import circle_cloud, ellipse_cloud, segment_cloud
from test_calculus import random_function


def report(num, ok, text):
    print(f"ACCEPTANCE {num:02d}: {'PASS' if ok else 'FAIL'} - {text}")
    assert ok, text


def test_c01_constants():
    ok = True
    # independent oracle: the two-step recursion omega_d = (2 pi / d) omega_{d-2}
    recursion = {0: 1.0, 1: 2.0}
    for d in (2, 3, 4):
        recursion[d] = 2 * math.pi / d * recursion[d - 2]
    for n in (1, 2, 3, 4):
        ok &= abs(unit_ball_volume(n) / recursion[n] - 1) < 1e-10
        gamma_form = math.gamma(n / 2 + 1) ** (1 / n) / (n * math.sqrt(math.pi))
        closed_form = 1.0 / (n * recursion[n] ** (1 / n))
        ok &= abs(gamma_form / closed_form - 1) < 1e-12
        ok &= abs(iso_constant(n) / closed_form - 1) < 1e-10
    ok &= abs(iso_constant(2) - 0.2820948) < 1e-7
    ok &= abs(iso_constant(3) - 0.2067834) < 1e-7
    report(1, ok, "sharp constants and unit-ball volumes match the gamma oracle")


def test_c02_hausdorff_estimator():
    circle = circle_cloud(1.0, 1 / 512)
    est = estimate_hm(circle, 1.0, 0.05)
    ok = abs(est / (2 * math.pi) - 1) < 0.03
    seg = segment_cloud(1.0, 1 / 512)
    ok &= abs(estimate_hm(seg, 1.0, 0.05) - 1.0) < 0.03
    ladder = [estimate_hm(circle, 1.0, d) for d in (0.4, 0.2, 0.1, 0.05)]
    ok &= all(a <= b + 1e-12 for a, b in zip(ladder, ladder[1:]))
    report(2, ok, f"boundary-measure estimator: circle {est:.4f} vs 2pi, monotone ladder")


def test_c03_partition_defect():
    ok = True
    for cloud in (circle_cloud(1.0, 1 / 512), ellipse_cloud(1.3, 0.7, 1 / 512)):
        defects = [partition_defect(build_partition(cloud, 1.0, d), 1.0)
                   for d in (0.4, 0.2, 0.1, 0.05)]
        ok &= all(fine <= 0.75 * coarse for coarse, fine in zip(defects, defects[1:]))
    seg = segment_cloud(1.0, 1 / 512)
    part = build_partition(seg, 1.0, 0.25)
    ok &= partition_defect(part, 1.0) <= 2 * seg.resolution * len(part)
    report(3, ok, "partition defect halves at rate <= 0.75; segment within quantization")


def test_c04_shell_formula():
    ok = True
    for r in (0.1, 1.0):
        for n in (2, 3):
            gap = abs(shell_mass(r, r / 1000, 1.0, n) / shell_mass_limit(r, 1.0, n) - 1)
            ok &= gap < 0.01
    dom = make_ball((0.0, 0.0), 0.45, 1 / 512)
    g = shell_gradient_discrete((0.0, 0.0), 0.2, 0.05, 1.0, dom)
    ok &= abs(g / shell_mass(0.2, 0.05, 1.0, 2) - 1) < 0.05
    report(4, ok, "shell mass converges to its limit; discrete barrier gradient matches")


def test_c05_equality_probes(disk_512):
    iso = check_isoperimetric(disk_512)
    ok = iso.holds and 0.97 <= iso.ratio <= 1.01
    maz = check_mazya(indicator_function(disk_512), "optimal")
    ok &= maz.holds and 0.95 <= maz.ratio <= 1.02
    report(5, ok, f"ball equality probes: iso ratio {iso.ratio:.4f}, trace ratio {maz.ratio:.4f}")


def test_c06_inequality_matrix():
    h = 1 / 128
    domains = {
        "disk": make_ball((0.0, 0.0), 1.0, h),
        "square": make_box((0.0, 0.0), (1.0, 1.0), h),
        "lshape": rasterize_polygon(
            [(0, 0), (1, 0), (1, 0.5), (0.5, 0.5), (0.5, 1), (0, 1)], h
        ),
        "triangle": rasterize_polygon([(0, 0), (1, 0), (0, 1)], h),
        "annulus": make_annulus((0.0, 0.0), 1.0, 0.5, h),
    }
    failures = []
    n_checks = 0
    for dname, dom in domains.items():
        functions = {
            "1": indicator_function(dom),
            "x": from_expression(dom, "x"),
            "x^2+y^2": from_expression(dom, "x*x + y*y"),
            "1-r^2": from_expression(dom, "1 - r*r"),
            "mollified": restrict_to_domain(mollify(indicator_function(dom), 8), dom),
        }
        iso = check_isoperimetric(dom)
        n_checks += 1
        if not iso.holds:
            failures.append(f"isoperimetric {dname}")
        for fname, u in functions.items():
            reports = [
                check_mazya(u, "optimal"),
                check_mazya(u, "paper_factor"),
                check_mazya_l2(u, "auto"),
                check_bv_bound(u),
                check_sobolev(u),
                check_extended_sobolev(u, k_list=(8,)),
            ]
            n_checks += len(reports)
            for rep in reports:
                if not rep.holds:
                    failures.append(f"{rep.inequality_id}/{rep.constant_mode} {dname} {fname}")
    report(6, not failures,
           f"full matrix: {n_checks} checks, violations: {failures or 'none'}")


def test_c07_proof_trace(disk_512):
    ok = abs(paper_boundary_factor(2) - 2 * math.pi) < 1e-12
    ok &= paper_boundary_factor(3) == 16.0
    u1 = constant_function(disk_512, 1.0)
    tr1 = proof_trace(u1, eps=0.1)
    ok &= tr1.all_hold
    u2 = from_expression(disk_512, "max(0, 1 - r*r)", lipschitz=2.0)
    tr2 = proof_trace(u2, eps=0.05)
    ok &= tr2.all_hold
    for u, tr in ((u1, tr1), (u2, tr2)):
        rep = check_mazya(u, "paper_factor")
        m3 = tr.step("main3")
        ok &= abs(m3.rhs - rep.rhs) <= 1e-9 * rep.rhs
        ok &= abs(m3.lhs - rep.lhs) <= 1e-9 * max(rep.lhs, 1e-300)
    report(7, ok, "proof trace holds on both reference runs; final step matches the check")


def test_c08_lattice_and_tv_properties():
    rng = np.random.default_rng(2024)
    ok = True
    for nsize in (32, 64):
        dom = make_box((0.0, 0.0), (1.0, 1.0), 1 / nsize)
        cloud = extract_boundary(dom)
        tol = LATTICE_SLACK_COEFF / nsize
        for _ in range(100):
            u = random_function(dom, cloud, rng)
            v = random_function(dom, cloud, rng)
            ok &= grad_l1(pointwise_min(u, v)) <= grad_l1(u) + grad_l1(v) + tol
        u = abs_value(random_function(dom, cloud, rng))
        tv0 = total_variation(u)
        mass0 = float(np.sum(u.values)) * dom.spacing ** 2
        for k in (4, 8, 16):
            mk = mollify(u, k)
            ok &= total_variation(mk) <= tv0 + 1e-6
            mass_k = float(np.sum(mk.values)) * dom.spacing ** 2
            ok &= abs(mass_k / mass0 - 1) <= 1e-12
    report(8, ok, "lattice inequality over 200 random pairs; TV and mass under smoothing")


def test_c09_minkowski_steiner():
    h = 1 / 512
    disk = make_ball((0.0, 0.0), 1.0, h)
    square = make_box((0.0, 0.0), (1.0, 1.0), h)
    eps = [104 * h, 52 * h, 26 * h]
    p_disk = minkowski_steiner(disk, eps).extrapolated
    p_square = minkowski_steiner(square, eps).extrapolated
    ok = abs(p_disk / (2 * math.pi) - 1) < 0.02
    ok &= abs(p_square / 4.0 - 1) < 0.02
    report(9, ok, f"volume-growth perimeters: disk {p_disk:.4f}, square {p_square:.4f}")


def test_c10_brunn_minkowski():
    h = 1 / 128
    ok = True
    # homothetic convex pairs: equality within one percent (the lattice sum
    # carries a one-cell boundary effect, so sizes stay >= 100 cells)
    pairs = [
        (make_box((0.0, 0.0), (1.0, 1.0), h), make_box((0.0, 0.0), (0.5, 0.5), h)),
        (make_ball((0.0, 0.0), 1.0, h), make_ball((0.0, 0.0), 0.5, h)),
        (make_box((0.0, 0.0, 0.0), (0.625, 0.625, 0.625), 1 / 128),
         make_box((0.0, 0.0, 0.0), (0.3125, 0.3125, 0.3125), 1 / 128)),
        (make_ball((0.0, 0.0, 0.0), 0.5, 1 / 64), make_ball((0.0, 0.0, 0.0), 0.25, 1 / 64)),
    ]
    for a, b in pairs:
        rep = check_brunn_minkowski(a, b)
        ok &= rep.holds and abs(rep.ratio - 1.0) < 0.01
    cross = check_brunn_minkowski(
        make_box((0.0, 0.0), (1.0, 2.0), h), make_box((0.0, 0.0), (2.0, 1.0), h)
    )
    ok &= cross.holds and cross.rhs / cross.lhs >= 1.05
    report(10, ok, "volume-root superadditivity: homothetic equality, cross boxes strict")


def test_c11_quotient_search():
    h = 2.2 / 64
    disk = make_ball((0.0, 0.0), 1.0, h)
    u0 = indicator_function(disk)
    best, q = quotient_search(u0, iters=200, step=0.1)
    hist = best.metadata["sweep_history"]
    monotone = all(b >= a - 1e-12 for a, b in zip(hist, hist[1:]))
    bounded = max(hist) <= iso_constant(2) * 1.05
    ok = monotone and bounded and q >= hist[0]
    report(11, ok, f"search monotone over 200 sweeps, peak {max(hist):.5f} within the bound")


def test_c12_cli_contract(tmp_path):
    smoke = {
        "name": "smoke",
        "entries": [
            {
                "domain": {"kind": "ball", "params": {"r": 1}, "h": 0.01},
                "function": "indicator",
                "checks": ["isoperimetric"],
            }
        ],
    }
    from gmtlab.cli import main
    from gmtlab.suite import parse_suite, suite_to_dict

    path = tmp_path / "smoke.json"
    path.write_text(json.dumps(smoke))
    # round trip
    spec = parse_suite(path)
    again = parse_suite_dict(json.loads(json.dumps(suite_to_dict(spec))))
    ok = suite_to_dict(again) == suite_to_dict(spec)
    # determinism of emitted bodies
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    ok &= main(["verify", str(path), "--out", str(a)]) == 0
    ok &= main(["verify", str(path), "--out", str(b)]) == 0
    ok &= a.read_text().splitlines()[1:] == b.read_text().splitlines()[1:]
    # exit-status contract with a forced failure
    bad = {
        "name": "forced-failure",
        "entries": [
            {
                "domain": {"kind": "box", "params": {"sides": [1, 1]}, "h": 0.01},
                "function": "indicator",
                "checks": ["swap_test"],
            }
        ],
    }
    bad_path = tmp_path / "bad.json"
    bad_path.write_text(json.dumps(bad))
    ok &= main(["verify", str(bad_path)]) == 1
    report(12, ok, "suite round-trip, byte-stable CSV bodies, exit-status contract")
