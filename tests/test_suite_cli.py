"""Suite parsing, execution, emission, and the command-line surface."""

import argparse
import ast
import csv
import ctypes
import io
import json
import math
import os
import re
import subprocess
import sys
import types
import warnings

import pytest

import gmtlab
import gmtlab.inequalities as ineq
from gmtlab import suite as suite_mod
from gmtlab.cli import build_parser, main
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
        assert spec["name"] == "smoke"
        assert len(spec["entries"]) == 1
        assert spec["entries"][0]["checks"] == ["isoperimetric"]

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

    def test_readme_names_every_parameter_and_check(self):
        with open(os.path.join(REPO, "README.md"), encoding="utf-8") as fh:
            readme = fh.read()
        section = readme.split("### Suite files")[1].split("\n## ")[0]
        assert sorted(re.findall(r"^\| `(\w+)` \|", section, re.M)) == sorted(suite_mod._PARAMS)
        known = section.split("Known check ids:")[1].split("\n\n")[0]
        assert set(re.findall(r"`(\w+)`", known)) == suite_mod.KNOWN_CHECKS
        # the "Command line" section names every flag of every command, and no other flag
        parser = build_parser()
        [commands] = [a.choices for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
        flags = {name: {o for a in p._actions if not isinstance(a, argparse._HelpAction)
                        for o in a.option_strings} for name, p in commands.items()}
        known_flags = set().union(*flags.values(), *(a.option_strings for a in parser._actions))
        cli = readme.split("\n## Command line\n")[1].split("\n## ")[0]
        named = set(re.findall(r"(?<![\w-])--[a-z][\w-]*", cli))
        assert named <= known_flags, named - known_flags
        for name, options in flags.items():
            assert options <= named, (name, options - named)

    def test_entries_are_in_normal_form(self):
        # every entry has exactly the five keys, the defaults filled in
        (entry,) = parse_suite_dict(SMOKE)["entries"]
        assert list(entry) == ["domain", "function", "checks", "modes", "parameters"]
        assert entry["modes"] == list(ineq.MAZYA_MODES) == ["optimal", "paper_factor"]
        assert entry["parameters"] == {}

    def test_suite_to_dict_is_a_copy(self):
        spec = parse_suite_dict(SMOKE)
        before = json.loads(json.dumps(spec))
        copied = suite_to_dict(spec)
        assert copied == spec == before
        copied["entries"][0]["domain"]["h"] = 0.5
        copied["entries"][0]["checks"].append("mazya")
        copied["entries"][0]["parameters"]["c1"] = 1.0
        assert spec == before

    def test_round_trip(self, tmp_path):
        spec = parse_suite(write_json(tmp_path / "s.json", SMOKE))
        redumped = suite_to_dict(spec)
        again = parse_suite_dict(json.loads(json.dumps(redumped)))
        assert suite_to_dict(again) == redumped


class TestRunSuite:
    def test_smoke_passes(self):
        manifest = run_suite(parse_suite_dict(SMOKE))
        assert manifest["pass"]
        assert len(manifest["entries"]) == 1
        assert len(manifest["entries"][0]["reports"]) == 1
        assert manifest["entries"][0]["reports"][0]["holds"] is True

    def test_entry_without_k_list_reports_the_default_chain(self):
        # the suite reads check_extended_sobolev's own default
        entry = {"domain": {"kind": "ball", "params": {"r": 1}, "h": 1 / 64},
                 "function": "indicator", "checks": ["sobolev_extended"]}
        manifest = run_suite(parse_suite_dict({"name": "chain", "entries": [entry]}))
        (report,) = manifest["entries"][0]["reports"]
        chain = report["metadata"]["mollified_chain"]
        assert [link["k"] for link in chain] == [4, 8, 16] == list(ineq.MOLLIFIER_INDICES)
        assert all("lq" in link for link in chain)

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
        assert not manifest["pass"]
        assert manifest["entries"][0]["reports"][0]["holds"] is False

    # swap_test's verdict at h = 1/16, 1/32, 1/64, 1/128 (True: holds).  It is
    # violated only where the domain's isoperimetric ratio exceeds 1 by more
    # than the tolerance: never on the disk, the equality case, and on the unit
    # square only from h = 1/128
    _SWAP_VERDICTS = {
        "disk": ({"kind": "ball", "params": {"r": 1.0}}, [True, True, True, True]),
        "square": ({"kind": "box", "params": {"sides": [1, 1]}}, [True, True, True, False]),
        "box_1x8": ({"kind": "box", "params": {"sides": [1, 8]}}, [False, False, False, False]),
        "annulus": ({"kind": "annulus", "params": {"r_outer": 1.0, "r_inner": 0.5}}, [False, False, False, False]),
        "triangle": ({"kind": "polygon", "params": {"vertices": [[0, 0], [1, 0], [0, 1]]}},
                     [True, False, False, False]),
    }

    @pytest.mark.parametrize("name", sorted(_SWAP_VERDICTS))
    def test_swap_test_verdicts_over_h(self, name):
        spec, verdicts = self._SWAP_VERDICTS[name]
        entries = [{"domain": dict(spec, h=1 / k), "function": "indicator", "checks": ["swap_test"]}
                   for k in (16, 32, 64, 128)]
        manifest = run_suite(parse_suite_dict({"name": "swap", "entries": entries}))
        assert [e["reports"][0]["holds"] for e in manifest["entries"]] == verdicts

    def test_empty_suite_passes_vacuously(self):
        manifest = run_suite(parse_suite_dict({"name": "empty", "entries": []}))
        assert manifest["pass"]
        assert manifest["entries"] == []

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
        assert not manifest["pass"]
        for entry in manifest["entries"][:-1]:
            assert entry["error"] is not None
        assert manifest["entries"][-1]["reports"][0]["holds"] is True

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
        reports = manifest["entries"][0]["reports"]
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
        for entry, record in zip(spec["entries"], manifest["entries"]):
            fresh = []
            for cid in entry["checks"]:
                for mode in entry["modes"] if cid == "mazya" else [None]:
                    domain = domain_from_spec(entry["domain"])
                    u = build_function(entry["function"], domain)
                    one = dict(entry, modes=[mode])
                    [rep] = suite_mod._CHECKS[cid](one, domain, u)
                    fresh.append(rep.to_dict())
            got = [dict(r, metadata={k: v for k, v in r["metadata"].items()
                                     if k not in ("domain", "function")})
                   for r in record["reports"]]
            assert got == fresh

    def test_standard_suite_describes_each_domain_once(self, monkeypatch):
        # one label per entry, which every report's metadata repeats
        calls = []
        describe = suite_mod.describe_spec

        def counting(spec):
            calls.append(spec)
            return describe(spec)

        monkeypatch.setattr(suite_mod, "describe_spec", counting)
        spec = parse_suite(os.path.join(REPO, "suites", "standard.json"))
        manifest = run_suite(spec)
        assert len(calls) == len(spec["entries"]) == 5
        for record in manifest["entries"]:
            assert {r["metadata"]["domain"] for r in record["reports"]} == {record["domain"]}

    def test_standard_suite_builds_gaps_only_where_read(self, monkeypatch):
        # the gaps of a face cloud are built on its first calibration, once;
        # the brunn_minkowski box calibrates nothing, so its cloud has none;
        # the mollified chain reads its norms off the convolution, so no
        # mollified function, domain or cloud is built at all
        import gmtlab.calculus as calc
        import gmtlab.hausdorff as hausdorff

        clouds, built, mollified = [], [], []
        extract, face_gaps = calc.extract_boundary, hausdorff._face_gaps

        def recording(domain):
            cloud = extract(domain)
            if all(cloud is not c for c in clouds):
                clouds.append(cloud)
            return cloud

        def counting(cloud):
            built.append(cloud)
            return face_gaps(cloud)

        monkeypatch.setattr(calc, "extract_boundary", recording)
        monkeypatch.setattr(hausdorff, "_face_gaps", counting)
        monkeypatch.setattr(calc, "mollify", lambda u, k: mollified.append(k))
        spec = parse_suite(os.path.join(REPO, "suites", "standard.json"))
        manifest = run_suite(spec)
        assert manifest["pass"]
        assert [e["checks"] for e in spec["entries"]][-1] == ["brunn_minkowski"]
        assert sum(e["checks"].count("sobolev_extended") for e in spec["entries"]) == 2
        assert mollified == []
        assert len(clouds) == len(spec["entries"]) == 5
        *calibrated, box = clouds
        assert box.nn_gaps is None and all(c is not box for c in built)
        assert [sum(c is b for b in built) for c in calibrated] == [1, 1, 1, 1]
        assert all(c.nn_gaps is not None for c in calibrated)


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

    def test_manifest_keys_in_emission_order(self, tmp_path):
        manifest = self._manifest()
        assert list(manifest) == ["tool", "version", "timestamp", "input_hash", "suite", "pass", "entries"]
        assert list(manifest["entries"][0]) == ["index", "domain", "function", "error", "reports"]
        out = tmp_path / "report.json"
        emit(manifest, "json", out)
        assert list(json.loads(out.read_text())) == list(manifest)

    def test_csv_labels_with_quotes(self, tmp_path):
        # a quote inside a label was written undoubled, which broke the row
        box = {"kind": "box", "params": {"sides": [1, 1]}, "h": 0.0625}
        suite = {"name": "quotes", "entries": [
            {"domain": box, "function": {"expr": 'x" + 1'}, "checks": ["isoperimetric"]},
            {"domain": dict(box, kind='bo"x'), "function": "indicator", "checks": ["isoperimetric"]},
        ]}
        manifest = run_suite(parse_suite_dict(suite))
        smoke = self._manifest()["entries"][0]
        manifest["entries"].append(dict(smoke, domain='ball "r=1"', function='"indicator"'))
        out = tmp_path / "report.csv"
        emit(manifest, "csv", out)
        rows = list(csv.reader(io.StringIO(out.read_text().split("\n", 1)[1])))[1:]
        assert [len(row) for row in rows] == [8, 8, 8]
        assert [row[:3] for row in rows] == [
            ["error", "box(sides=[1, 1])", 'x" + 1'],
            ["error", 'bo"x(sides=[1, 1])', "indicator"],
            ["isoperimetric", 'ball "r=1"', '"indicator"'],
        ]

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


# case: (argv, message), paths in braces
_UNWORKABLE_SCALES = {
    "trace_eps_1e6": (["trace", "{disk}", "{fn}", "--eps", "1e6"], "exceeds the limit"),
    "trace_eps_1e300": (["trace", "{disk}", "{fn}", "--eps", "1e300"], "exceeds the limit"),
    "search_step_1e300": (["search", "{disk}", "{fn}", "--iters", "1", "--step", "1e300"],
                          "by step 1e+300 overflow"),
    "trace_3d_thin_shells": (["trace", "{ball}", "{fn}", "--eps", "0.5"], "delta/4 is 1.8 grid spacings"),
    "trace_window_past_its_limit": (["trace", "{disk}", "{fn}", "--eps", "2000"],
                                    "cells exceeds the limit of 67108864"),
    "search_start_overflows": (["search", "{disk}", "{huge}", "--iters", "1", "--step", "0.1"],
                               "up to 1e+200 moved by step 0.1 overflow"),
    "trace_interior_nan": (["trace", "{disk}", "{hole}", "--eps", "1"],
                           "values must be finite on every interior cell"),
    "search_start_gradient_overflows": (["search", "{disk}", "{steep}", "--iters", "1", "--step", "0.1"],
                                        "gradient mass is inf"),
    "trace_sides_overflow": (["trace", "{disk}", "{tall}", "--eps", "1.5e300"],
                             "mazya: the lhs is inf, not a finite number"),
}

# runs main on each argv of the JSON list argv[1] and prints [{code, stdout, stderr}, ...];
# each case gets fresh warning registries, so a warning shows as in a process of its own
_MAIN_PER_ARGV = """
import contextlib, io, json, sys, traceback, warnings
from gmtlab.cli import main
runs = []
for argv in json.loads(sys.argv[1]):
    out, err = io.StringIO(), io.StringIO()
    with warnings.catch_warnings(), contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
        except Exception:
            traceback.print_exc()
            code = 1
    runs.append({"code": code, "stdout": out.getvalue(), "stderr": err.getvalue()})
print(json.dumps(runs))
"""


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

    def test_verify_warns_on_an_empty_suite(self, tmp_path, capsys):
        code = main(["verify", write_json(tmp_path / "s.json", {"name": "empty", "entries": []})])
        assert code == 0
        out = capsys.readouterr().out
        assert out == "suite 'empty': 0 checks, 0 violations, 0 errors -> PASS\nwarning: suite has no entries\n"

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

    @pytest.mark.parametrize("argv", [
        ["verify", "{suite}", "--h", "0.02"],
        ["verify", "{suite}", "--tol", "0.5"],
        ["trace", "{dom}", "{fn}", "--eps", "0.5", "--s", "0.01"],
    ], ids=["verify_h", "verify_tol", "trace_s"])
    def test_verdict_override_flag_is_a_usage_error(self, tmp_path, capsys, argv):
        # spacing, tolerance and shell width come from the domain file and the
        # frozen tables only; a tolerance flag could turn this swap_test suite to PASS
        paths = {"suite": write_json(tmp_path / "s.json", {"name": "neg", "entries": [
                     {"domain": {"kind": "box", "params": {"sides": [1, 1]}, "h": 0.01},
                      "function": "indicator", "checks": ["swap_test"]}]}),
                 "dom": self._domain_file(tmp_path, h=1 / 32), "fn": self._function_file(tmp_path)}
        with pytest.raises(SystemExit) as exc:
            main([a.format(**paths) for a in argv])
        assert exc.value.code == 2
        assert f"unrecognized arguments: {' '.join(argv[-2:])}" in capsys.readouterr().err

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
        {"kind": "ball", "params": {"r": 10 ** 400}, "h": 0.01},  # past the float range
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

    def test_trace_numbers_pinned(self, tmp_path, capsys):
        # the whole trace chain (centres, partition, collar, truncation,
        # gradient and TV stencils) on the h=1/128 disk: every number exact
        out = tmp_path / "trace.json"
        fn = write_json(tmp_path / "f.json", {"expr": "max(0, 1 - r*r)", "lipschitz": 2.0})
        code = main(["trace", self._domain_file(tmp_path, h=1 / 128), fn, "--eps", "0.2", "--out", str(out)])
        assert code == 0
        data = json.loads(out.read_text())
        assert data["parameters"]["partition_cells"] == 182
        assert [(s["label"], s["lhs"], s["rhs"], s["holds"]) for s in data["steps"]] == [
            ("main4", 4.2444220649272255, 13.900863998939577, True),
            ("main5", 10.050862227371125, 9.709475618567106, True),
            ("main6", 1.0229139474671205, 1.1973293586060998, True),
            ("prelim_est", 0.9982144244117389, 3.4329438752931165, True),
            ("hm_sum_estimate", 1.2697509961902322, 3.5660403510382177, True),
            ("main3", 1.0233267059936713, 1.1998794520466343, True),
        ]

    def test_trace_numbers_pinned_3d(self, tmp_path, capsys):
        # the same chain on the h=1/48 unit ball, where the shells' windows
        # leave the grid box and the blocks hold few windows: every number exact
        out = tmp_path / "trace.json"
        dom = write_json(tmp_path / "ball.json",
                         {"kind": "ball", "params": {"r": 1, "center": [0, 0, 0]}, "h": 1 / 48})
        fn = write_json(tmp_path / "f.json", {"expr": "max(0, 1 - r*r)", "lipschitz": 2.0})
        assert main(["trace", dom, fn, "--eps", "1.0", "--out", str(out)]) == 0
        data = json.loads(out.read_text())
        assert data["parameters"]["partition_cells"] == 599
        assert [(s["label"], s["lhs"], s["rhs"], s["holds"]) for s in data["steps"]] == [
            ("main4", 5.401624298463177, 458.225736988015, True),
            ("main5", 465.19033676444207, 451.9264065569491, True),
            ("main6", 0.9607929170280356, 1.1169667617352534, True),
            ("prelim_est", 0.0, 68.96383660232816, True),
            ("hm_sum_estimate", 20.450507420757035, 40.72413458746445, True),
            ("main3", 1.150287846022429, 1.4985746364995214, True),
        ]

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
        assert manifest["entries"][0]["error"] is not None

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

    @pytest.mark.parametrize("where, key, value", [
        ("parameters", "c1", [1]), ("parameters", "c1", math.inf), ("parameters", "c1", math.nan),
        ("parameters", "c1", True), ("parameters", "eps_list", 5), ("parameters", "eps_list", [[1]]),
        ("parameters", "eps_list", ["0.25"]), ("entry", "modes", 5), ("entry", "modes", []),
        ("entry", "checks", [["mazya"]]),
        *[("parameters", key, 0.1) for key in ("eps", "s", "delta", "iters", "step")],
        ("domain", "h", "0.03125"), ("params", "sides", [1, True]),
        ("parameters", "h", 0.05),  # spacing comes from the domain spec alone
    ])
    def test_malformed_value_is_a_spec_error(self, tmp_path, capsys, where, key, value):
        entry = {"domain": {"kind": "box", "params": {"sides": [1, 1]}, "h": 1 / 32},
                 "function": "indicator", "checks": ["mazya", "mazya_l2", "perimeter_iso"],
                 "parameters": {}}
        targets = {"entry": entry, "parameters": entry["parameters"], "domain": entry["domain"],
                   "params": entry["domain"]["params"]}
        targets[where][key] = value
        suite = write_json(tmp_path / "s.json", {"name": "m", "entries": [entry]})
        if where in ("domain", "params"):
            # a domain file is refused where it is read; in a suite it is an entry error
            dom = write_json(tmp_path / "d.json", entry["domain"])
            assert main(["estimate-hm", dom, "--d", "1", "--delta", "0.5"]) == 2
            err = capsys.readouterr().err
            assert err.startswith(f"spec error: {key} must be ") and err.count("\n") == 1
            assert main(["verify", suite]) == 1
            assert f"): SpecError: {key} must be " in capsys.readouterr().out
            return
        assert main(["verify", suite]) == 2
        err = capsys.readouterr().err
        assert err.startswith("spec error: entry 0: ") and f"'{key}'" in err
        assert err.count("\n") == 1

    def test_deeply_nested_json_is_a_spec_error(self, tmp_path, capsys):
        # json.load stops at the recursion limit, which used to end in a traceback
        path = tmp_path / "deep.json"
        path.write_text("[" * 100_000 + "]" * 100_000)
        for argv in (["estimate-hm", str(path), "--d", "1", "--delta", "0.5"], ["verify", str(path)]):
            assert main(argv) == 2
            assert capsys.readouterr().err == f"spec error: JSON in {path} nests too deeply\n"

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

    @pytest.mark.parametrize("argv, error", [
        (["verify", "s.json", "--h"], "unrecognized arguments"),
        (["verify", "s.json", "--tol"], "unrecognized arguments"),
        (["estimate-hm", "d.json", "--delta", "0.1", "--d"], "must be finite"),
        (["estimate-hm", "d.json", "--d", "1", "--delta"], "must be finite"),
        (["trace", "d.json", "f.json", "--eps"], "must be finite"),
        (["trace", "d.json", "f.json", "--eps", "0.1", "--s"], "unrecognized arguments"),
        (["search", "d.json", "f.json", "--iters", "1", "--step"], "must be finite"),
    ], ids=[f"argv{i}" for i in range(7)])
    @pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
    def test_non_finite_scalar_flag_is_a_usage_error(self, capsys, argv, error, value):
        # parsing fails before any file is read, so the paths need not exist;
        # the verdict-override flags (--h, --tol, --s) are gone, so they fail as unknown
        with pytest.raises(SystemExit) as exc:
            main([*argv[:-1], f"{argv[-1]}={value}"])
        assert exc.value.code == 2
        assert error in capsys.readouterr().err

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

    @pytest.fixture(scope="class")
    def unworkable_runs(self, tmp_path_factory):
        """Every case of ``_UNWORKABLE_SCALES``, run by ``main`` in one ``python -O`` child.

        Returns {case: {"code", "stdout", "stderr"}}.
        """
        tmp_path = tmp_path_factory.mktemp("unworkable")
        ball = {"kind": "ball", "params": {"r": 1.0, "center": [0, 0, 0]}, "h": 1 / 48}
        paths = {"disk": self._domain_file(tmp_path, h=1 / 32),
                 "ball": write_json(tmp_path / "ball.json", ball),
                 "fn": write_json(tmp_path / "f.json", {"expr": "max(0, 1 - r*r)", "lipschitz": 2}),
                 "huge": write_json(tmp_path / "huge.json", {"expr": "1e200", "lipschitz": 0}),
                 "hole": write_json(tmp_path / "hole.json", {"expr": "sqrt(0.5 - r*r)", "lipschitz": 2}),
                 "steep": write_json(tmp_path / "steep.json",
                                     {"expr": "5e153*min(1, max(0, 1e6*x))", "lipschitz": 0}),
                 "tall": write_json(tmp_path / "tall.json",
                                    {"expr": "1e300*max(0, 1 - r*r)", "lipschitz": 3e300})}
        argvs = [[a.format(**paths) for a in argv] for argv, _ in _UNWORKABLE_SCALES.values()]
        src = os.path.dirname(os.path.dirname(gmtlab.__file__))
        proc = subprocess.run(
            [sys.executable, "-O", "-c", _MAIN_PER_ARGV, json.dumps(argvs)],
            capture_output=True, text=True, timeout=300, env=dict(os.environ, PYTHONPATH=src), check=True,
        )
        return dict(zip(_UNWORKABLE_SCALES, json.loads(proc.stdout)))

    @pytest.mark.parametrize("case", list(_UNWORKABLE_SCALES))
    def test_unworkable_scale_exits_two_under_python_O(self, unworkable_runs, case):
        # shell windows past the grid limit (at eps 1e6 they exhausted memory,
        # at 1e300 their index bounds overflowed) or past the window limit (a
        # 9,728^2 window at eps 2000, about 3 GB of temporaries), a step or a
        # start whose powers leave the float range (the start's first sums
        # warned of the overflow before the refusal), 3D shells 1.8 spacings
        # wide, whose stencil bias (+5.7 %) was once reported as a main5
        # violation, and a function undefined on interior cells, refused
        # without a warning from the evaluation.  A start whose values pass
        # the cap but whose gradient overflows reported quotient 0.0 and
        # exited 0; a trace whose sums overflow printed numpy's warnings
        # before its refusal
        run = unworkable_runs[case]
        assert run["code"] == 2
        assert run["stdout"] == ""
        assert run["stderr"].startswith("error: ") and run["stderr"].count("\n") == 1
        assert _UNWORKABLE_SCALES[case][1] in run["stderr"]
        assert "Traceback" not in run["stderr"]

    def test_window_under_its_limit_runs(self, tmp_path):
        # eps 373: one window of about 3.7M cells (210 MB peak), well under the limit
        paths = [self._domain_file(tmp_path, h=1 / 32),
                 write_json(tmp_path / "f.json", {"expr": "max(0, 1 - r*r)", "lipschitz": 2})]
        src = os.path.dirname(os.path.dirname(gmtlab.__file__))
        proc = subprocess.run(
            [sys.executable, "-m", "gmtlab.cli", "trace", *paths, "--eps", "373"],
            capture_output=True, text=True, timeout=120, env=dict(os.environ, PYTHONPATH=src),
        )
        assert proc.returncode == 0 and proc.stderr == ""
        assert proc.stdout.endswith("trace: PASS (1 cells)\n")

    def _verify_quietly(self, tmp_path, entry):
        """(exit code, stdout) of a fresh ``verify`` of one entry; its stderr must be empty."""
        suite = write_json(tmp_path / "s.json", {"name": "one", "entries": [entry]})
        src = os.path.dirname(os.path.dirname(gmtlab.__file__))
        proc = subprocess.run(
            [sys.executable, "-m", "gmtlab.cli", "verify", suite],
            capture_output=True, text=True, timeout=120, env=dict(os.environ, PYTHONPATH=src),
        )
        assert proc.stderr == ""
        return proc.returncode, proc.stdout

    def test_overflowing_sides_are_entry_errors(self, tmp_path):
        # the sums overflowed to inf, each with a numpy warning, and every
        # check held with lhs=inf rhs=inf ratio=nan
        disk = {"kind": "ball", "params": {"r": 1}, "h": 1 / 32}
        entry = {"domain": disk, "function": {"expr": "1e200*(1+x*x)"},
                 "checks": ["mazya", "sobolev", "bv_bound", "mazya_l2"]}
        code, out = self._verify_quietly(tmp_path, entry)
        assert code == 1
        assert "[ERROR] entry 0 (ball(r=1)): NumericalError: mazya: the lhs is inf, not a finite number" in out
        assert out.endswith("0 checks, 0 violations, 1 errors -> FAIL\n")
        for cid in entry["checks"][1:] + ["sobolev_extended"]:
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                manifest = run_suite(parse_suite_dict({"name": cid, "entries": [dict(entry, checks=[cid])]}))
            assert not manifest["pass"]
            assert manifest["entries"][0]["error"] == f"NumericalError: {cid}: the lhs is inf, not a finite number"

    def test_function_undefined_off_the_domain_builds_silently(self, tmp_path):
        # sqrt(1 - r*r) is nan on exterior cells, which are dropped, and on
        # some boundary faces, so a check that reads the trace has no verdict
        disk = {"kind": "ball", "params": {"r": 1}, "h": 1 / 32}
        entry = {"domain": disk, "function": {"expr": "sqrt(1 - r*r)"}, "checks": ["sobolev"]}
        code, out = self._verify_quietly(tmp_path, entry)
        assert code == 0 and "[ok] sobolev" in out
        code, out = self._verify_quietly(tmp_path, dict(entry, checks=["mazya"]))
        assert code == 1 and "NumericalError: mazya: the rhs is nan, not a finite number" in out

    def test_no_command_imports_scipy_fft_ndimage_or_signal(self, tmp_path):
        # one fresh process runs all six subcommands; the suite convolves
        # through sobolev_extended (mollify) and brunn_minkowski (A + B)
        box = {"kind": "box", "params": {"sides": [1, 1]}, "h": 0.0625}
        suite = write_json(tmp_path / "s.json", {"name": "tiny", "entries": [
            {"domain": {"kind": "ball", "params": {"r": 1}, "h": 0.03125},
             "function": "indicator", "checks": ["sobolev_extended"]},
            {"domain": box, "function": "indicator", "checks": ["brunn_minkowski"],
             "parameters": {"domain_b": box}},
        ]})
        disk = self._domain_file(tmp_path, h=0.015625)
        fn = write_json(tmp_path / "f.json", {"expr": "max(0, 1 - r*r)", "lipschitz": 2})
        code = """
import sys
from gmtlab.cli import main
suite, disk, fn = sys.argv[1:]
for argv in (["verify", suite], ["estimate-hm", disk, "--d", "1", "--delta", "0.25"],
             ["partition", disk, "--delta", "0.25"], ["trace", disk, fn, "--eps", "0.5"],
             ["search", disk, fn, "--iters", "1", "--step", "0.1"],
             ["steiner", disk, "--eps", "0.5,0.25,0.125"]):
    assert main(argv) == 0, argv
loaded = {"scipy.fft", "scipy.ndimage", "scipy.signal"} & set(sys.modules)
assert not loaded, sorted(loaded)
"""
        src = os.path.dirname(os.path.dirname(gmtlab.__file__))
        proc = subprocess.run(
            [sys.executable, "-c", code, suite, disk, fn], cwd=REPO,
            capture_output=True, text=True, timeout=120, env=dict(os.environ, PYTHONPATH=src),
        )
        assert proc.returncode == 0, proc.stderr

    def test_import_leaves_scipy_fft_and_ndimage_unloaded(self):
        # restrict_to_domain imports scipy.ndimage on first use; nothing imports scipy.fft
        src = os.path.dirname(os.path.dirname(gmtlab.__file__))
        code = ("import sys, gmtlab.cli; "
                "assert not {'scipy.fft', 'scipy.ndimage'} & set(sys.modules)")
        proc = subprocess.run(
            [sys.executable, "-c", code], cwd=REPO,
            capture_output=True, text=True, timeout=120, env=dict(os.environ, PYTHONPATH=src),
        )
        assert proc.returncode == 0, proc.stderr

    @pytest.mark.parametrize("module", ["calculus", "domains"])
    def test_module_imports_no_scipy_at_module_level(self, module):
        # imports inside a function run on first use only (restrict_to_domain's ndimage)
        path = os.path.join(REPO, "src", "gmtlab", f"{module}.py")
        with open(path, encoding="utf-8") as fh:
            nodes = list(ast.parse(fh.read(), filename=path).body)
        imported = []
        while nodes:
            node = nodes.pop()
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
                continue
            if isinstance(node, ast.Import):
                imported += [a.name for a in node.names]
            elif isinstance(node, ast.ImportFrom) and not node.level:
                imported.append(node.module)
            nodes.extend(ast.iter_child_nodes(node))
        assert [m for m in imported if m.split(".")[0] == "scipy"] == []

    def test_bundled_smoke_suite(self, capsys):
        here = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
        suite = os.path.join(here, "suites", "smoke.json")
        assert main(["verify", suite]) == 0


def _c_library_has_mallopt():
    try:
        return hasattr(ctypes.CDLL(None), "mallopt")
    except (OSError, TypeError):
        return False


# four in-process traces of argv[1:], each printed as: exit code, minor page faults
_FAULTS_PER_MAIN = """
import contextlib, io, resource, sys
from gmtlab.cli import main
for _ in range(4):
    before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    with contextlib.redirect_stdout(io.StringIO()):
        code = main(sys.argv[1:])
    print(code, resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)
"""


class TestProcessMemory:
    """``main`` keeps freed memory mapped (glibc's mallopt); library callers keep their allocator."""

    def _trace_argv(self, tmp_path):
        return ["trace", write_json(tmp_path / "disk.json", {"kind": "ball", "params": {"r": 1}, "h": 1 / 128}),
                write_json(tmp_path / "f.json", {"expr": "max(0, 1 - r*r)", "lipschitz": 2}), "--eps", "0.2"]

    @pytest.mark.skipif(not _c_library_has_mallopt(), reason="the C library has no mallopt")
    def test_repeated_trace_faults_in_no_pages(self, tmp_path):
        # with glibc's defaults each freed block over 128 KiB went back to the
        # system, and every later trace faulted about 1,000 pages in again
        src = os.path.dirname(os.path.dirname(gmtlab.__file__))
        proc = subprocess.run(
            [sys.executable, "-c", _FAULTS_PER_MAIN, *self._trace_argv(tmp_path)],
            capture_output=True, text=True, timeout=120, env=dict(os.environ, PYTHONPATH=src), check=True,
        )
        runs = [tuple(map(int, line.split())) for line in proc.stdout.splitlines()]
        assert [code for code, _ in runs] == [0] * 4
        assert all(faults < 50 for _, faults in runs[2:]), runs

    def test_main_sets_both_thresholds(self, monkeypatch):
        calls = []

        def mallopt(param, value):
            calls.append((param, value))
            return 1

        monkeypatch.setattr(ctypes, "CDLL", lambda name: types.SimpleNamespace(mallopt=mallopt))
        with pytest.raises(SystemExit):
            main(["--version"])
        assert calls == [(-3, 32 << 20), (-1, 1 << 30)]  # M_MMAP_THRESHOLD, M_TRIM_THRESHOLD
        assert (mallopt.argtypes, mallopt.restype) == ((ctypes.c_int, ctypes.c_int), ctypes.c_int)

    @pytest.mark.parametrize("error", [OSError, TypeError, AttributeError],
                             ids=["dlopen_fails", "no_handle_for_none", "no_mallopt"])
    def test_main_runs_without_mallopt(self, tmp_path, capsys, monkeypatch, error):
        # no C library to open, CDLL(None) refused (Windows), or a C library without mallopt (macOS)
        argv = self._trace_argv(tmp_path)
        assert main(argv) == 0
        expected = capsys.readouterr()

        def c_library(name):
            if error is AttributeError:
                return types.SimpleNamespace()
            raise error("no C library")

        monkeypatch.setattr(ctypes, "CDLL", c_library)
        assert main(argv) == 0
        assert capsys.readouterr() == expected


class TestHashFile:
    def test_stable(self, tmp_path):
        p = write_json(tmp_path / "s.json", SMOKE)
        assert hash_file(p) == hash_file(p)
        assert len(hash_file(p)) == 64
