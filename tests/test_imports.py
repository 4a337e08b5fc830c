"""Which commands load scipy: none for simulate, E1 alone for fig4.

The subprocess tests run one command through `cli.main` in a fresh
interpreter, which then reports the scipy modules in its `sys.modules`.
The in-process tests pin how `analytics` reaches scipy once loaded.
"""

import importlib
import json
import os
import pathlib
import subprocess
import sys
import types

import pytest

from brqsim import analytics
from brqsim.channel import Rayleigh

SRC = pathlib.Path(__file__).resolve().parents[1] / "src"

_REPORT = """
import json, sys
print(json.dumps(sorted(m for m in sys.modules if m.split(".")[0] == "scipy")))
"""


def scipy_modules_after(code, cwd):
    """The scipy modules loaded by a fresh interpreter once `code` has run."""
    path = os.pathsep.join(p for p in (str(SRC), os.environ.get("PYTHONPATH")) if p)
    done = subprocess.run(
        [sys.executable, "-c", code + _REPORT],
        env={**os.environ, "PYTHONPATH": path},
        cwd=cwd, capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == 0, done.stderr
    return set(json.loads(done.stdout.splitlines()[-1]))


def scipy_modules_after_main(argv, cwd):
    code = f"from brqsim import cli\nassert cli.main({argv!r}) == 0\n"
    return scipy_modules_after(code, cwd)


def test_parser_loads_no_scipy(tmp_path):
    code = "import brqsim.cli as cli\ncli.build_parser()\n"
    assert scipy_modules_after(code, tmp_path) == set()


def test_parser_loads_no_csv(tmp_path):
    # the command line formats its CSV cells itself
    code = ("import sys\nimport brqsim.cli as cli\ncli.build_parser()\n"
            "assert not {'csv', '_csv'} & set(sys.modules), 'csv loaded'\n")
    scipy_modules_after(code, tmp_path)


@pytest.mark.parametrize("argv", [
    ["simulate", "--scheme", "full", "--accounting", "fluid", "--slots", "500",
     "--replications", "2", "--output", "s.json"],
    ["simulate", "--scheme", "quantized", "--accounting", "integer", "--rate", "3.5",
     "--feedback-bits", "2", "--block-length", "4", "--slots", "256",
     "--csv-log", "log.csv", "--output", "s.json"],
], ids=["full-fluid", "quantized-integer-slotlog"])
def test_simulate_loads_no_scipy(tmp_path, argv):
    assert scipy_modules_after_main(argv, tmp_path) == set()


def test_fig4_loads_special_but_not_integrate(tmp_path):
    loaded = scipy_modules_after_main(
        ["fig4", "--snr-grid-db", "0:20:10", "--output", "fig4.csv"], tmp_path)
    assert "scipy.special" in loaded
    assert not {m for m in loaded if m.startswith("scipy.integrate")}


def test_analytic_loads_special_and_integrate(tmp_path):
    loaded = scipy_modules_after_main(["analytic", "--output", "row.csv"], tmp_path)
    assert {"scipy.special", "scipy.integrate"} <= loaded


def test_quadrature_is_looked_up_through_the_module_attribute(monkeypatch):
    """A stand-in for `analytics.integrate` sees every quadrature call."""
    quad = analytics.integrate.quad
    assert quad.__module__.startswith("scipy")
    model = Rayleigh(10.0)
    want = analytics.avg_rate_r_limited(model, 3.0)
    calls = []

    def counting_quad(*args, **kwargs):
        calls.append(args[1:3])
        return quad(*args, **kwargs)

    monkeypatch.setattr(analytics, "integrate", types.SimpleNamespace(quad=counting_quad))
    assert analytics.avg_rate_r_limited(model, 3.0) == want
    assert calls


def test_first_use_puts_the_module_itself_in_place():
    """After one E1 call, `special.exp1` is a plain module attribute lookup."""
    analytics.avg_rate_prior_fixed_power(Rayleigh(1.0))
    assert analytics.special is importlib.import_module("scipy.special")
