"""Suite parsing, execution, emission, and the command-line surface."""

import dataclasses
import json
import math
import os
import subprocess
import sys
import warnings

import pytest

import gmtlab
import gmtlab.inequalities as ineq
from gmtlab import suite as suite_mod
from gmtlab.cli import main
from gmtlab.domains import domain_from_spec
from gmtlab.errors import SpecError
from gmtlab.suite import (
    build_function,
    emit,
    hash_file,
    parse_suite,
    parse_suite_dict,
    run_suite,
    suite_to_dict,
)

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

SMOKE = {
    "name": "smoke",
    "entries": [
        {
            "domain": {"kind": "ball", "params": {"r": 1}, "h": 0.01},
            "function": "indicator",
            "checks": ["isoperimetric"],
        }
    ],
}


def write_json(path, data):
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(data, fh)
    return str(path)


class TestParseSuite:
    def test_minimal_suite(self, tmp_path):
        spec = parse_suite(write_json(tmp_path / "s.json", SMOKE))
        assert spec.name == "smoke"
        assert len(spec.entries) == 1
        assert spec.entries[0].checks == ["isoperimetric"]

    @pytest.mark.parametrize("k_list", [4, [0], [4.5], ["8"], [True], [1e999], None])
    def test_k_list_must_hold_positive_integers(self, k_list):
        bad = json.loads(json.dumps(SMOKE))
        bad["entries"][0]["parameters"] = {"k_list": k_list}
        with pytest.raises(SpecError, match="k_list"):
            parse_suite_dict(bad)

    def test_unknown_check_rejected_by_name(self, tmp_path):
        bad = json.loads(json.dumps(SMOKE))
        bad["entries"][0]["checks"] = ["bogus"]
        with pytest.raises(SpecError, match="bogus"):
            parse_suite(write_json(tmp_path / "s.json", bad))

    def test_missing_file(self, tmp_path):
        with pytest.raises(SpecError, match="not found"):
            parse_suite(tmp_path / "absent.json")

    def test_malformed_json_reports_position(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text('{"name": "x", entries: []}')
        with pytest.raises(SpecError, match="line 1"):
            parse_suite(path)

    def test_unknown_entry_key_rejected(self, tmp_path):
        bad = json.loads(json.dumps(SMOKE))
        bad["entries"][0]["tollerance"] = 0.1
        with pytest.raises(SpecError, match="tollerance"):
            parse_suite(write_json(tmp_path / "s.json", bad))

    def test_unknown_parameter_rejected(self, tmp_path):
        bad = json.loads(json.dumps(SMOKE))
        bad["entries"][0]["parameters"] = {"epsilon": 0.1}
        with pytest.raises(SpecError, match="epsilon"):
            parse_suite(write_json(tmp_path / "s.json", bad))

    def test_round_trip(self, tmp_path):
        spec = parse_suite(write_json(tmp_path / "s.json", SMOKE))
        redumped = suite_to_dict(spec)
        again = parse_suite_dict(json.loads(json.dumps(redumped)))
        assert suite_to_dict(again) == redumped


class TestRunSuite:
    def test_smoke_passes(self):
        manifest = run_suite(parse_suite_dict(SMOKE))
        assert manifest.passed
        assert len(manifest.entries) == 1
        assert len(manifest.entries[0]["reports"]) == 1
        assert manifest.entries[0]["reports"][0]["holds"] is True

    def test_swap_test_fails(self):
        suite = {
            "name": "negative",
            "entries": [
                {
                    "domain": {"kind": "box", "params": {"sides": [1, 1]}, "h": 0.01},
                    "function": "indicator",
                    "checks": ["swap_test"],
                }
            ],
        }
        manifest = run_suite(parse_suite_dict(suite))
        assert not manifest.passed
        assert manifest.entries[0]["reports"][0]["holds"] is False

    def test_empty_suite_passes_vacuously(self):
        manifest = run_suite(parse_suite_dict({"name": "empty", "entries": []}))
        assert manifest.passed
        assert manifest.entries == []

    def test_entry_error_recorded_without_abort(self):
        bad_domains = [
            {"kind": "ball", "params": {"r": 0.005}, "h": 0.01},
            {"kind": "ball", "params": {}, "h": 0.01},
            {"kind": "ball", "params": {"r": 1}, "h": "abc"},
            {"kind": "ball", "params": {"r": 1}, "h": math.inf},
            {"kind": "ball", "params": {"r": "one"}, "h": 0.01},
            {"kind": "ball", "params": {"r": math.nan}, "h": 0.01},
            {"kind": "box", "params": {}, "h": 0.01},
            {"kind": "box", "params": {"sides": [1, math.inf]}, "h": 0.01},
            {"kind": "polygon", "params": {}, "h": 0.01},
            {"kind": "annulus", "params": {"r_outer": 1.0}, "h": 0.01},
        ]
        good = {"kind": "ball", "params": {"r": 1}, "h": 0.01}
        suite = {
            "name": "erroring",
            "entries": [
                {"domain": d, "function": "indicator", "checks": ["isoperimetric"]}
                for d in bad_domains + [good]
            ],
        }
        manifest = run_suite(parse_suite_dict(suite))
        assert not manifest.passed
        for entry in manifest.entries[:-1]:
            assert entry["error"] is not None
        assert manifest.entries[-1]["reports"][0]["holds"] is True

    def test_mazya_modes_produce_two_reports(self):
        suite = {
            "name": "modes",
            "entries": [
                {
                    "domain": {"kind": "ball", "params": {"r": 1}, "h": 0.02},
                    "function": "indicator",
                    "checks": ["mazya"],
                    "modes": ["optimal", "paper_factor"],
                }
            ],
        }
        manifest = run_suite(parse_suite_dict(suite))
        reports = manifest.entries[0]["reports"]
        assert [r["constant_mode"] for r in reports] == ["optimal", "paper_factor"]

    def test_standard_suite_estimates_each_boundary_once(self, monkeypatch):
        calls = []
        estimate = ineq.estimate_hm_detail

        def counting(*args, **kwargs):
            calls.append(args)
            return estimate(*args, **kwargs)

        monkeypatch.setattr(ineq, "estimate_hm_detail", counting)
        spec = parse_suite(os.path.join(REPO, "suites", "standard.json"))
        manifest = run_suite(spec)
        assert len(calls) == 4
        # every report equals the same check run on a freshly built domain
        # and function, so no cached estimate or metadata leaks between reports
        for entry, record in zip(spec.entries, manifest.entries):
            fresh = []
            for cid in entry.checks:
                for mode in entry.modes if cid == "mazya" else [None]:
                    domain = domain_from_spec(entry.domain_spec)
                    u = build_function(entry.function_spec, domain)
                    one = dataclasses.replace(entry, modes=[mode])
                    [rep] = suite_mod._CHECKS[cid](one, domain, u, None, None)
                    fresh.append(rep.to_dict())
            got = [dict(r, metadata={k: v for k, v in r["metadata"].items()
                                     if k not in ("domain", "function")})
                   for r in record["reports"]]
            assert got == fresh


class TestEmission:
    def _manifest(self):
        return run_suite(parse_suite_dict(SMOKE), input_hash="deadbeef")

    def test_json_contains_verdict(self, tmp_path):
        manifest = self._manifest()
        out = tmp_path / "report.json"
        emit(manifest, "json", out)
        text = out.read_text()
        assert '"holds": true' in text
        assert json.loads(text)["pass"] is True

    def test_csv_schema(self, tmp_path):
        manifest = self._manifest()
        out = tmp_path / "report.csv"
        emit(manifest, "csv", out)
        lines = out.read_text().splitlines()
        assert lines[1] == "inequality_id,domain,function,h,lhs,rhs,ratio,holds"
        assert lines[2].startswith("isoperimetric,")

    def test_csv_bodies_deterministic(self, tmp_path):
        m1 = self._manifest()
        m2 = self._manifest()
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        emit(m1, "csv", a)
        emit(m2, "csv", b)
        assert a.read_text().splitlines()[1:] == b.read_text().splitlines()[1:]

    def test_unknown_format_rejected(self, tmp_path):
        with pytest.raises(SpecError):
            emit(self._manifest(), "xml", tmp_path / "x")


class TestCli:
    def _domain_file(self, tmp_path, h=0.01):
        return write_json(
            tmp_path / "disk.json", {"kind": "ball", "params": {"r": 1}, "h": h}
        )

    def _function_file(self, tmp_path):
        return write_json(tmp_path / "one.json", {"expr": "1 + x - x", "lipschitz": 0.0})

    def test_verify_exit_zero_and_output(self, tmp_path, capsys):
        suite = write_json(tmp_path / "s.json", SMOKE)
        out = tmp_path / "rep.csv"
        code = main(["verify", suite, "--out", str(out)])
        assert code == 0
        assert "PASS" in capsys.readouterr().out
        assert out.exists()

    def test_verify_exit_nonzero_on_violation(self, tmp_path, capsys):
        bad = {
            "name": "neg",
            "entries": [
                {
                    "domain": {"kind": "box", "params": {"sides": [1, 1]}, "h": 0.01},
                    "function": "indicator",
                    "checks": ["swap_test"],
                }
            ],
        }
        code = main(["verify", write_json(tmp_path / "s.json", bad)])
        assert code == 1
        assert "FAIL" in capsys.readouterr().out

    def test_verify_exit_two_on_bad_spec(self, tmp_path, capsys):
        path = tmp_path / "broken.json"
        path.write_text("{nope}")
        code = main(["verify", str(path)])
        assert code == 2

    def test_verify_determinism_across_runs(self, tmp_path):
        suite = write_json(tmp_path / "s.json", SMOKE)
        out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
        assert main(["verify", suite, "--out", str(out1)]) == 0
        assert main(["verify", suite, "--out", str(out2)]) == 0
        assert out1.read_text().splitlines()[1:] == out2.read_text().splitlines()[1:]

    def test_verify_h_override(self, tmp_path):
        suite = write_json(tmp_path / "s.json", SMOKE)
        out = tmp_path / "r.json"
        assert main(["verify", suite, "--h", "0.02", "--out", str(out)]) == 0
        data = json.loads(out.read_text())
        h = data["entries"][0]["reports"][0]["metadata"]["h"]
        assert h == pytest.approx(0.02)

    def test_verify_tol_override(self, tmp_path):
        suite = write_json(tmp_path / "s.json", SMOKE)
        out = tmp_path / "r.json"
        assert main(["verify", suite, "--tol", "0.5", "--out", str(out)]) == 0
        data = json.loads(out.read_text())
        assert data["entries"][0]["reports"][0]["tol"] == 0.5

    def test_estimate_hm_command(self, tmp_path, capsys):
        code = main(["estimate-hm", self._domain_file(tmp_path), "--d", "1", "--delta", "0.08"])
        assert code == 0
        out = capsys.readouterr().out
        assert "upper bound" in out

    @pytest.mark.parametrize("delta", ["inf", "-inf", "nan"])
    def test_estimate_hm_non_finite_delta_exits_two(self, tmp_path, delta):
        # a non-finite delta used to spin forever in the dyadic cascade
        src = os.path.dirname(os.path.dirname(gmtlab.__file__))
        env = dict(os.environ, PYTHONPATH=src)
        proc = subprocess.run(
            [sys.executable, "-m", "gmtlab.cli", "estimate-hm", self._domain_file(tmp_path),
             "--d", "1", f"--delta={delta}"],
            capture_output=True, text=True, timeout=30, env=env,
        )
        assert proc.returncode == 2
        assert "Traceback" not in proc.stderr

    @pytest.mark.parametrize("domain", [
        {"kind": "ball", "params": {}, "h": 0.01},
        {"kind": "ball", "params": {"r": 1}, "h": "abc"},
    ])
    def test_estimate_hm_malformed_domain_exits_two(self, tmp_path, capsys, domain):
        path = write_json(tmp_path / "bad.json", domain)
        assert main(["estimate-hm", path, "--d", "1", "--delta", "0.08"]) == 2
        assert capsys.readouterr().err.startswith("spec error:")

    @pytest.mark.parametrize("command,flag", [("partition", "--delta"), ("steiner", "--eps")])
    @pytest.mark.parametrize("values", ["0.5,abc", "0.5,inf", "nan"])
    def test_list_flag_rejects_bad_items(self, tmp_path, capsys, command, flag, values):
        assert main([command, self._domain_file(tmp_path), flag, values]) == 2
        assert capsys.readouterr().err.startswith("spec error:")

    def test_partition_command_with_sweep(self, tmp_path, capsys):
        cells = tmp_path / "cells.json"
        plot = tmp_path / "plot.tsv"
        code = main([
            "partition", self._domain_file(tmp_path),
            "--delta", "0.2,0.1", "--out", str(cells), "--plot", str(plot),
        ])
        assert code == 0
        data = json.loads(cells.read_text())
        assert data["n_cells"] > 1
        series = (tmp_path / "plot_defect.tsv").read_text().splitlines()
        assert series[1] == "delta\tdefect"
        assert len(series) == 4

    def test_trace_command(self, tmp_path, capsys):
        out = tmp_path / "trace.json"
        plot = tmp_path / "steps.tsv"
        code = main([
            "trace", self._domain_file(tmp_path, h=1 / 256), self._function_file(tmp_path),
            "--eps", "0.15", "--out", str(out), "--plot", str(plot),
        ])
        assert code == 0
        data = json.loads(out.read_text())
        assert data["all_hold"] is True
        assert [s["label"] for s in data["steps"]] == [
            "main4", "main5", "main6", "prelim_est", "hm_sum_estimate", "main3",
        ]
        # one series file per labeled step
        for label in ("main4", "main5", "main6", "prelim_est", "hm_sum_estimate", "main3"):
            assert (tmp_path / f"steps_{label}.tsv").exists()

    def test_search_command(self, tmp_path, capsys):
        plot = tmp_path / "q.tsv"
        code = main([
            "search", self._domain_file(tmp_path, h=0.05), self._function_file(tmp_path),
            "--iters", "3", "--step", "0.1", "--plot", str(plot),
        ])
        assert code == 0
        series = (tmp_path / "q_quotient.tsv").read_text().splitlines()
        assert series[1] == "sweep\tQ"
        assert len(series) == 2 + 4  # header lines plus initial state plus 3 sweeps

    def test_search_respects_gmt_seed(self, tmp_path, capsys, monkeypatch):
        args = [
            "search", self._domain_file(tmp_path, h=0.05), self._function_file(tmp_path),
            "--iters", "2", "--step", "0.1",
        ]
        monkeypatch.setenv("GMT_SEED", "7")
        main(args)
        out1 = capsys.readouterr().out
        main(args)
        out2 = capsys.readouterr().out
        assert out1 == out2

    @pytest.mark.parametrize("seed", ["abc", "-1", "1.5"])
    def test_search_rejects_malformed_gmt_seed(self, tmp_path, capsys, monkeypatch, seed):
        monkeypatch.setenv("GMT_SEED", seed)
        code = main(["search", self._domain_file(tmp_path, h=0.05), self._function_file(tmp_path),
                     "--iters", "1", "--step", "0.1"])
        assert code == 2
        assert "GMT_SEED" in capsys.readouterr().err

    def test_search_reports_broken_quotient_bound(self, tmp_path, capsys, monkeypatch):
        # a sharp constant far too small makes the first sweep exceed the bound
        monkeypatch.setattr(ineq, "iso_constant", lambda n: 1e-6)
        code = main(["search", self._domain_file(tmp_path, h=0.05), self._function_file(tmp_path),
                     "--iters", "1", "--step", "0.1"])
        assert code == 2
        assert "exceeded the sharp bound" in capsys.readouterr().err

    @pytest.mark.parametrize("text", [
        "[1]", "{}", '{"lipschitz": 1}', '{"expr": x}', '{"expr": "x", "scale": 2}',
        '{"expr": "indicator"}',
    ])
    def test_malformed_function_spec_refused_everywhere(self, tmp_path, capsys, text):
        fn = tmp_path / "fn.json"
        fn.write_text(text)
        domain = self._domain_file(tmp_path, h=0.05)
        for args in (["trace", domain, str(fn), "--eps", "0.9"],
                     ["search", domain, str(fn), "--iters", "1", "--step", "0.1"]):
            assert main(args) == 2
            assert capsys.readouterr().err.startswith(("spec error:", "error:"))
        suite = tmp_path / "suite.json"
        suite.write_text('{"name": "f", "entries": [{"domain": '
                         + json.dumps({"kind": "ball", "params": {"r": 1}, "h": 0.05})
                         + ', "function": ' + text + ', "checks": ["mazya"]}]}')
        try:
            manifest = run_suite(parse_suite(suite))
        except SpecError:
            return  # refused at parse time
        assert manifest.entries[0]["error"] is not None

    def test_negative_lipschitz_refused_everywhere(self, tmp_path, capsys):
        # used to reach `trace` and fail there as an inconsistent trace (exit 2)
        spec = {"expr": "1", "lipschitz": -1}
        fn = write_json(tmp_path / "fn.json", spec)
        domain = self._domain_file(tmp_path, h=0.05)
        for args in (["trace", domain, fn, "--eps", "0.9"],
                     ["search", domain, fn, "--iters", "1", "--step", "0.1"]):
            assert main(args) == 2
            assert "'lipschitz' must be nonnegative" in capsys.readouterr().err
        bad = json.loads(json.dumps(SMOKE))
        bad["entries"][0]["function"] = spec
        with pytest.raises(SpecError, match="'lipschitz' must be nonnegative"):
            parse_suite_dict(bad)
        assert main(["verify", write_json(tmp_path / "s.json", bad)]) == 2
        assert "'lipschitz' must be nonnegative" in capsys.readouterr().err

    @pytest.mark.parametrize("domain", [
        {"kind": [], "params": {"r": 1}, "h": 0.05},
        {"kind": "annulus", "params": {"r_outer": 1, "r_inner": 0.5, "center": -1}, "h": 0.05},
        {"kind": "ball", "params": {"r": 1, "center": 0.5}, "h": 0.05},
        {"kind": "ball", "params": {"r": 1, "center": [[0, 0]]}, "h": 0.05},
    ])
    def test_malformed_domain_shapes_exit_two(self, tmp_path, capsys, domain):
        # an unhashable kind and a scalar or nested centre used to end in a traceback
        dom = write_json(tmp_path / "d.json", domain)
        assert main(["estimate-hm", dom, "--d", "1", "--delta", "0.5"]) == 2
        assert capsys.readouterr().err.startswith(("spec error:", "error:"))

    def test_constant_division_by_zero_exits_two(self, tmp_path, capsys):
        # 1/0 between constants used to raise ZeroDivisionError
        fn = write_json(tmp_path / "fn.json", {"expr": "1/0", "lipschitz": 1})
        assert main(["trace", self._domain_file(tmp_path, h=0.05), fn, "--eps", "0.9"]) == 2
        assert "must be finite" in capsys.readouterr().err

    def test_division_by_zero_emits_no_runtime_warning(self, tmp_path, capsys):
        fn = write_json(tmp_path / "fn.json", {"expr": "1/0"})
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(["trace", self._domain_file(tmp_path, h=0.05), fn, "--eps", "0.9"]) == 2
        assert "must be finite" in capsys.readouterr().err

    def test_steiner_command(self, tmp_path, capsys):
        code = main([
            "steiner", self._domain_file(tmp_path, h=1 / 256),
            "--eps", f"{52/256},{26/256},{13/256}",
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "extrapolated perimeter" in out
        value = float(out.strip().splitlines()[-1].split()[-1])
        assert value == pytest.approx(2 * math.pi, rel=0.02)

    def test_domain_without_params_is_an_entry_error(self, tmp_path, capsys):
        good = SMOKE["entries"][0]
        suite = write_json(tmp_path / "s.json", {"name": "np", "entries": [
            dict(good, domain={"kind": "ball", "h": 0.05}), good]})
        assert main(["verify", suite]) == 1
        out = capsys.readouterr().out
        assert "[ERROR] entry 0 (?): SpecError:" in out
        assert "[ok] isoperimetric (optimal) on ball(r=1)" in out

    @pytest.mark.parametrize("argv", [
        ["verify", "s.json", "--h"],
        ["verify", "s.json", "--tol"],
        ["estimate-hm", "d.json", "--delta", "0.1", "--d"],
        ["estimate-hm", "d.json", "--d", "1", "--delta"],
        ["trace", "d.json", "f.json", "--eps"],
        ["trace", "d.json", "f.json", "--eps", "0.1", "--s"],
        ["search", "d.json", "f.json", "--iters", "1", "--step"],
    ])
    @pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
    def test_non_finite_scalar_flag_is_a_usage_error(self, capsys, argv, value):
        # parsing fails before any file is read, so the paths need not exist
        with pytest.raises(SystemExit) as exc:
            main([*argv[:-1], f"{argv[-1]}={value}"])
        assert exc.value.code == 2
        assert "must be finite" in capsys.readouterr().err

    @pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
    def test_non_finite_step_exits_two_without_traceback(self, tmp_path, value):
        # `search --step nan` used to run and report a quotient
        src = os.path.dirname(os.path.dirname(gmtlab.__file__))
        proc = subprocess.run(
            [sys.executable, "-m", "gmtlab.cli", "search", self._domain_file(tmp_path),
             self._function_file(tmp_path), "--iters", "1", f"--step={value}"],
            capture_output=True, text=True, timeout=60, env=dict(os.environ, PYTHONPATH=src),
        )
        assert proc.returncode == 2
        assert "must be finite" in proc.stderr
        assert "Traceback" not in proc.stderr

    def test_verify_never_imports_scipy_signal(self):
        src = os.path.dirname(os.path.dirname(gmtlab.__file__))
        code = ("import sys; from gmtlab.cli import main; "
                "code = main(['verify', 'suites/standard.json']); "
                "assert code == 0, code; assert 'scipy.signal' not in sys.modules")
        proc = subprocess.run(
            [sys.executable, "-c", code], cwd=REPO,
            capture_output=True, text=True, timeout=120, env=dict(os.environ, PYTHONPATH=src),
        )
        assert proc.returncode == 0, proc.stderr

    def test_bundled_smoke_suite(self, capsys):
        here = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
        suite = os.path.join(here, "suites", "smoke.json")
        assert main(["verify", suite]) == 0


class TestHashFile:
    def test_stable(self, tmp_path):
        p = write_json(tmp_path / "s.json", SMOKE)
        assert hash_file(p) == hash_file(p)
        assert len(hash_file(p)) == 64
