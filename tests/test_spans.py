"""The benchmark's trace boundaries (bench/spans.py) still find their targets.

The tracer replaces module and class attributes by name, so a renamed
function, or a caller that captured a function object instead of looking it
up at call time, silently drops a layer from the traced metrics.
"""

import importlib.util
import sys
from pathlib import Path

from chowstab import FP, SearchBudget, cli, parse_poly, stability

SPANS_PATH = Path(__file__).resolve().parent.parent / "bench" / "spans.py"


def _load_spans():
    spec = importlib.util.spec_from_file_location("bench_spans", SPANS_PATH)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # its dataclasses resolve it by name
    spec.loader.exec_module(module)
    return module


def test_every_boundary_attribute_exists():
    for b in _load_spans().BOUNDARIES:
        assert b.attr in vars(b.owner), f"{b.layer}: {b.attr} is gone"


def test_cli_looks_up_parse_and_torus_at_call_time(monkeypatch, capsys):
    calls = []
    parse, torus = cli.parse_poly, cli.torus_certificate

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            calls.append(name)
            return fn(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(cli, "parse_poly", counted("parse_poly", parse))
    monkeypatch.setattr(cli, "torus_certificate",
                        counted("torus_certificate", torus))
    assert cli.run(["--json", "certify-torus", "--nvars", "3",
                    "--poly", "x0*x1*x2"]) == 0
    capsys.readouterr()
    assert calls == ["parse_poly", "torus_certificate"]


def test_traced_layers_see_calls(capsys):
    spans = _load_spans()
    tracer = spans.Tracer()
    form = parse_poly("x0^3 + x1^3 + x2^3", 3, FP(5))
    budget = SearchBudget(max_candidates=2, depth=1, seed=1)
    tracer.install()
    try:
        tracer.run_op(0, lambda: cli.run(["--json", "certify-torus",
                                          "--nvars", "3",
                                          "--poly", "x0*x1*x2"]))
        tracer.run_op(1, lambda: stability.destab_search(form, budget))
    finally:
        tracer.uninstall()
    capsys.readouterr()
    metrics = tracer.layer_metrics()
    for layer in ("cli", "poly.parse", "stability.torus", "simplex",
                  "stability.search", "poly.apply_matrix", "poly.matrix_det"):
        assert metrics[f"{layer}.calls"] > 0, layer
