"""Run the kellerlab CLI with spans recorded around calls into its modules.

Usage: python tracehook.py SPANS_FILE CLI_ARG...

The package source is not changed: the public callables below are replaced,
from outside, by wrappers that record a span (name, parent, start, end and a
few deterministic counts).  A function imported by name into other modules is
replaced in every module that holds it.  Spans stay in memory and are written
as JSON to SPANS_FILE when the CLI returns.  Stdout is the CLI's own.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
import time

# span name -> the callables it covers, as "module:qualified name"
TARGETS = {
    "mpoly.substitute": ["mpoly:MPoly.substitute"],
    "mpoly.mul": ["mpoly:MPoly.__mul__", "mpoly:MPoly.__rmul__", "mpoly:MPoly.__pow__"],
    "mpoly.exact_div": ["mpoly:MPoly.exact_div"],
    "mpoly.parse": ["mpoly:parse"],
    "mpoly.render": ["mpoly:render"],
    "polymap.compose": ["polymap:PolyMap.compose"],
    "polymap.evaluate": ["polymap:PolyMap.evaluate"],
    "polymap.translate": ["polymap:PolyMap.translate"],
    "polymap.det_jacobian": ["polymap:PolyMap.det_jacobian"],
    "inversion.formal_inverse": ["inversion:formal_inverse"],
    "inversion.invert_polymap": ["inversion:invert_polymap"],
    "inversion.normalize_affine": ["inversion:normalize_affine"],
    "inversion.verify_inverse": ["inversion:verify_inverse"],
    "reduction.kernel_conjugate": ["reduction:kernel_conjugate"],
    "reduction.pair_reduction": ["reduction:pair_reduction"],
    "reduction.degree_bound_report": ["reduction:degree_bound_report"],
    "collinear.collision_search": ["collinear:collision_search"],
    "collinear.find_rank_drop": ["collinear:find_rank_drop"],
    "collinear.line_injectivity": ["collinear:line_injectivity"],
    "field_linalg.rref": ["field_linalg:Matrix.rref"],
    "field_linalg.det": ["field_linalg:Matrix.det"],
    "field_linalg.generalized_vandermonde": ["field_linalg:generalized_vandermonde"],
    "cli.main": ["cli:main"],
    "cli.load_mapfile": ["cli:load_mapfile"],
}

MODULES = ("field_linalg", "mpoly", "polymap", "inversion", "reduction", "collinear", "cli")


def _terms(args, kwargs, result):
    return {"terms": len(result.terms)}


def _substitute(args, kwargs, result):
    truncated = kwargs.get("max_degree", args[2] if len(args) > 2 else None) is not None
    return {"terms": len(result.terms), "truncated": truncated}


def _compose(args, kwargs, result):
    return {"terms": sum(len(c.terms) for c in result.components)}


def _translate(args, kwargs, result):
    return {"point": ",".join(str(x) for x in args[1])}


def _formal_inverse(args, kwargs, result):
    return {"n": args[0].n, "bound": result.bound_used, "degree": result.inverse_degree}


def _collision_search(args, kwargs, result):
    return {"witnesses": len(result)}


# deterministic counts attached to a span once its call returns
NOTES = {
    "mpoly.substitute": _substitute,
    "mpoly.mul": _terms,
    "polymap.compose": _compose,
    "polymap.translate": _translate,
    "inversion.formal_inverse": _formal_inverse,
    "collinear.collision_search": _collision_search,
}


class Recorder:
    """In-memory span list; the open spans form a stack (one thread)."""

    def __init__(self):
        self.spans = []
        self.stack = []

    def wrap(self, name, fn):
        note = NOTES.get(name)
        spans, stack = self.spans, self.stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = {"name": name, "parent": stack[-1] if stack else -1, "start": 0.0, "end": 0.0}
            stack.append(len(spans))
            spans.append(span)
            span["start"] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span["end"] = clock()
                stack.pop()
            if note is not None:
                span["attrs"] = note(args, kwargs, result)
            return result

        return wrapper


def install(recorder, package="kellerlab"):
    """Replace every target in every module that holds it.

    A target that does not exist raises, so a renamed function cannot make
    its layer read as zero.
    """
    modules = {name: importlib.import_module(f"{package}.{name}") for name in MODULES}
    holders = [importlib.import_module(package), *modules.values()]
    for span_name, specs in TARGETS.items():
        for spec in specs:
            mod_name, _, qualname = spec.partition(":")
            owner = modules[mod_name]
            *path, attr = qualname.split(".")
            for part in path:
                owner = getattr(owner, part)
            original = owner.__dict__.get(attr) if isinstance(owner, type) else getattr(owner, attr, None)
            if original is None:
                raise LookupError(f"trace target {package}.{spec} does not exist")
            wrapper = recorder.wrap(span_name, original)
            setattr(owner, attr, wrapper)
            if not path:
                for holder in holders:
                    for key, value in list(vars(holder).items()):
                        if value is original:
                            setattr(holder, key, wrapper)


def main(argv):
    spans_file, cli_args = argv[0], argv[1:]
    recorder = Recorder()
    install(recorder)
    from kellerlab import cli

    try:
        code = cli.main(cli_args)
    finally:
        sys.stdout.flush()
        with open(spans_file, "w") as handle:
            json.dump(recorder.spans, handle)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
