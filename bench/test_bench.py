"""Tests of the benchmark's own logic, on synthetic data.

Run from the root of the checkout:

    python3 -m unittest discover -s bench -p "test_*.py"
"""

from __future__ import annotations

import json
import os
import random
import subprocess
import sys
import tempfile
import unittest
from pathlib import Path

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH))

import run  # noqa: E402
import stats  # noqa: E402
import workloads  # noqa: E402


def span(name, parent, start, end, **attrs):
    out = {"name": name, "parent": parent, "start": start, "end": end}
    if attrs:
        out["attrs"] = attrs
    return out


class TailRule(unittest.TestCase):
    def test_ten_samples_beyond(self):
        pct, value = stats.tail(list(range(1, 41)))
        self.assertEqual((pct, value), (75.0, 30))
        self.assertEqual(sum(1 for v in range(1, 41) if v > value), stats.TAIL_BEYOND)

    def test_order_of_input_does_not_matter(self):
        values = [5.0, 1.0, 4.0, 2.0, 3.0] * 6
        self.assertEqual(stats.tail(values), stats.tail(sorted(values)))

    def test_undefined_below_twenty_samples(self):
        self.assertIsNone(stats.tail(list(range(19))))
        self.assertEqual(stats.tail(list(range(1, 21))), (50.0, 10))


class SelfTime(unittest.TestCase):
    def test_children_are_subtracted_once_where_they_overlap(self):
        spans = [
            span("root", -1, 0.0, 10.0),
            span("a", 0, 1.0, 3.0),
            span("b", 0, 2.0, 5.0),  # overlaps a: together they cover 1..5
            span("grandchild", 1, 1.5, 2.5),
        ]
        selfs = stats.self_times(spans)
        self.assertAlmostEqual(selfs[0], 6.0)
        self.assertAlmostEqual(selfs[1], 1.0)
        self.assertAlmostEqual(selfs[2], 3.0)
        self.assertAlmostEqual(selfs[3], 1.0)

    def test_child_outside_its_parent_is_clipped(self):
        spans = [span("root", -1, 0.0, 2.0), span("late", 0, 1.5, 4.0)]
        self.assertAlmostEqual(stats.self_times(spans)[0], 1.5)

    def test_inversion_split_and_counts(self):
        fi = "inversion.formal_inverse"
        spans = [
            span("inversion.invert_polymap", -1, 0.0, 20.0),
            span(fi, 0, 1.0, 19.0, n=2, bound=8, degree=4),
            span("mpoly.substitute", 1, 1.0, 2.0, terms=5, truncated=True),
            span("mpoly.substitute", 1, 2.0, 3.0, terms=7, truncated=True),
            span("mpoly.substitute", 1, 3.0, 4.0, terms=6, truncated=True),
            span("mpoly.substitute", 1, 4.0, 5.0, terms=6, truncated=True),
            span("polymap.compose", 1, 6.0, 9.0, terms=2),
            span("mpoly.substitute", 6, 6.0, 9.0, terms=1, truncated=False),
            span("polymap.compose", 1, 9.0, 18.0, terms=2),
        ]
        totals = stats.layer_totals(spans)
        self.assertAlmostEqual(totals["inversion.check_fg_s"], 3.0)
        self.assertAlmostEqual(totals["inversion.check_gf_s"], 9.0)
        self.assertAlmostEqual(totals["inversion.iterate_s"], 18.0 - 12.0)
        self.assertEqual(totals["inversion.passes"], 2.0)
        self.assertEqual(totals["mpoly.substitute.truncated_calls"], 4)
        self.assertEqual(totals["mpoly.substitute.terms_out"], 25)
        self.assertEqual(totals["mpoly.terms_peak"], 7)
        names = ["inversion.degree_ratio", "mpoly.substitute.calls", "polymap.compose.self_s"]
        metrics = stats.layer_metrics(stats.merge([totals]), names, {"mpoly.substitute", "polymap.compose"})
        self.assertEqual(metrics["inversion.degree_ratio"], 0.5)
        self.assertEqual(metrics["mpoly.substitute.calls"], 5)
        self.assertAlmostEqual(metrics["polymap.compose.self_s"], 0.0 + 9.0)

    def test_compose_outside_an_inversion_is_not_a_check(self):
        spans = [span("polymap.compose", -1, 0.0, 1.0, terms=1), span("inversion.formal_inverse", -1, 1.0, 2.0)]
        totals = stats.layer_totals(spans)
        self.assertEqual(totals["inversion.check_fg_s"], 0.0)
        self.assertAlmostEqual(totals["inversion.iterate_s"], 1.0)

    def test_merge_sums_counts_and_keeps_the_peak(self):
        merged = stats.merge([{"a.calls": 2, "mpoly.terms_peak": 9}, {"a.calls": 3, "mpoly.terms_peak": 4}])
        self.assertEqual(merged["a.calls"], 5)
        self.assertEqual(merged["mpoly.terms_peak"], 9)

    def test_unknown_metric_name_is_an_error(self):
        with self.assertRaises(KeyError):
            stats.layer_metrics(stats.merge([]), ["mpoly.substitue.calls"], {"mpoly.substitute"})


class Fixtures(unittest.TestCase):
    def test_same_seed_gives_identical_bytes(self):
        for name in workloads.WORKLOADS:
            first, second = workloads.build(name, 7), workloads.build(name, 7)
            self.assertEqual(run.inputs_digest(first), run.inputs_digest(second), name)
            self.assertEqual([j.files for j in first], [j.files for j in second], name)

    def test_other_seed_gives_other_inputs(self):
        for name in workloads.WORKLOADS:
            self.assertNotEqual(
                run.inputs_digest(workloads.build(name, 1)), run.inputs_digest(workloads.build(name, 2)), name
            )

    def test_jobs_name_only_relative_files_and_define_the_tail(self):
        for name in workloads.WORKLOADS:
            jobs = workloads.build(name, 3)
            self.assertGreaterEqual(len(jobs), 2 * stats.TAIL_BEYOND, name)
            self.assertEqual(len({j.name for j in jobs}), len(jobs), name)
            for job in jobs:
                for token in job.argv:
                    self.assertFalse(token.startswith("/") or ".." in token, token)
                for file_name in job.files:
                    self.assertIn(file_name, job.argv)

    def test_generated_maps_parse_and_match_their_construction(self):
        sys.path.insert(0, str(run.SRC))
        from kellerlab import Matrix, PrimeField, QQ
        from kellerlab.cli import load_mapfile
        from kellerlab.inversion import triangular_inverse

        with tempfile.TemporaryDirectory() as tmp:
            for name in workloads.WORKLOADS:
                for job in workloads.build(name, 5):
                    for file_name, data in job.files.items():
                        if file_name.startswith("drz"):
                            continue
                        path = os.path.join(tmp, file_name)
                        Path(path).write_bytes(data)
                        load_mapfile(path)
        # the generator's own inverse degree agrees with the library's
        for field, kfield in ((None, QQ), (101, PrimeField(101))):
            a = workloads.chain_matrix(random.Random(0), field, (3, 1))
            matrix = Matrix(kfield, [[kfield.coerce(int(x)) for x in row] for row in a])
            self.assertEqual(workloads.triangular_inverse_degree(field, a, 2), triangular_inverse(matrix, 2).degree())


class Tracing(unittest.TestCase):
    def run_cli(self, args, cwd, traced, spans=None):
        env = run.cli_env()
        prefix = [str(BENCH / "tracehook.py"), spans] if traced else ["-m", "kellerlab.cli"]
        return subprocess.run([sys.executable, *prefix, *args], cwd=cwd, env=env, capture_output=True, timeout=120)

    def test_traced_stdout_equals_untraced_and_spans_nest(self):
        jobs = workloads.build("cli-short", 1)
        picked = [next(j for j in jobs if j.argv[0] == cmd) for cmd in ("keller", "invert", "collide", "reduce")]
        with tempfile.TemporaryDirectory() as tmp:
            for job in picked:
                for file_name, data in job.files.items():
                    Path(tmp, file_name).write_bytes(data)
                plain = self.run_cli(job.argv, tmp, traced=False)
                spans_path = os.path.join(tmp, "spans.json")
                traced = self.run_cli(job.argv, tmp, traced=True, spans=spans_path)
                self.assertEqual((plain.returncode, plain.stdout), (traced.returncode, traced.stdout))
                spans = json.loads(Path(spans_path).read_text())
                self.assertEqual(spans[0]["name"], "cli.main")
                self.assertTrue(all(s["parent"] < i for i, s in enumerate(spans)))

    def test_missing_target_is_an_error(self):
        code = (
            "import tracehook\n"
            "tracehook.TARGETS['mpoly.gone'] = ['mpoly:no_such_function']\n"
            "tracehook.install(tracehook.Recorder())\n"
        )
        out = subprocess.run(
            [sys.executable, "-c", code], cwd=BENCH, env=run.cli_env(), capture_output=True, text=True, timeout=60
        )
        self.assertNotEqual(out.returncode, 0)
        self.assertIn("LookupError", out.stderr)

    def test_every_target_is_replaced_in_each_module_that_imports_it(self):
        code = (
            "import tracehook\n"
            "tracehook.install(tracehook.Recorder())\n"
            "from kellerlab import cli, inversion, mpoly, polymap, reduction\n"
            "assert reduction.formal_inverse is inversion.formal_inverse\n"
            "assert cli.render is mpoly.render is polymap.render\n"
            "assert cli.parse_poly is mpoly.parse\n"
            "for f in (inversion.formal_inverse, cli.invert_polymap, cli.kernel_conjugate,\n"
            "          cli.collision_search, mpoly.render, mpoly.MPoly.__mul__, mpoly.MPoly.__rmul__):\n"
            "    assert hasattr(f, '__wrapped__'), f\n"
        )
        out = subprocess.run(
            [sys.executable, "-c", code], cwd=BENCH, env=run.cli_env(), capture_output=True, text=True, timeout=60
        )
        self.assertEqual(out.returncode, 0, out.stderr)


if __name__ == "__main__":
    unittest.main()
