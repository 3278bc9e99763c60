"""The public surface: every exported name exists, and the README's library
example runs and prints what it says it prints."""

import contextlib
import io
import re
from pathlib import Path

import pytest

README = Path(__file__).resolve().parent.parent / "README.md"
MODULES = ["kcontact", "kcontact.cli", "kcontact.connection", "kcontact.errors",
           "kcontact.holonomy", "kcontact.jets", "kcontact.manifolds", "kcontact.spinor",
           "kcontact.transport", "kcontact.transverse"]


@pytest.mark.parametrize("module", MODULES)
def test_star_import_resolves_every_exported_name(module):
    # a stale __all__ entry makes the star import raise AttributeError
    exec(f"from {module} import *", {})


def test_readme_library_example_prints_its_comment():
    text = README.read_text()
    section = text[text.index("## Library"):]
    code = re.search(r"```python\n(.*?)```", section, re.S).group(1)
    out, scope = io.StringIO(), {}
    with contextlib.redirect_stdout(out):
        exec(code, scope)
    h_dim, h0_dim, comparison = out.getvalue().strip().split(" ", 2)
    assert (h_dim, h0_dim) == ("1", "2")
    assert re.search(r"'codim': 1\b", comparison)
    assert scope["split"].blocks == [(0, 1), (2, 3)]


def test_every_factor_and_sampler_field_is_settable_from_a_config():
    # a dataclass field that no config can reach is a library-only knob:
    # every field must carry a non-default config value through to the object,
    # on a factor kind that reads it (complex_dim a ball's, epsilon a
    # perturbed disc's)
    from dataclasses import MISSING, fields

    from kcontact.cli import RunConfig
    from kcontact.manifolds import FactorSpec, chart_from_config
    from kcontact.transport import SamplerConfig

    factors = [{"kind": "bergman_ball", "complex_dim": 2, "b": 2.5, "curvature": 0.5},
               {"kind": "perturbed_disc", "b": 1.5, "curvature": 2.0, "epsilon": 0.3}]
    sampler = {"n_paths": 7, "segments": 3, "horizon": 0.9, "magnitude": 0.3,
               "step": 0.05, "seed": 11}
    chart = chart_from_config({"type": "product", "factors": factors})
    cfg = RunConfig.from_dict({"manifold": {"type": "heisenberg", "m": 1},
                               "sampler": sampler})
    for cls, raws, objs in ((FactorSpec, factors, chart.factors),
                            (SamplerConfig, [sampler], [cfg.sampler])):
        for f in fields(cls):
            set_by = [(raw, obj) for raw, obj in zip(raws, objs, strict=True) if f.name in raw]
            assert set_by, f"{cls.__name__}.{f.name} cannot be set from a config"
            for raw, obj in set_by:
                assert raw[f.name] != f.default or f.default is MISSING
                assert getattr(obj, f.name) == raw[f.name], f"{cls.__name__}.{f.name}"


def test_chart_options_are_pinned():
    # a new option of the chart type or of chart evaluation changes one of
    # these and shows up in review
    import inspect
    from dataclasses import fields

    from kcontact import jets
    from kcontact.manifolds import ContactChart, chart_arrays

    assert (str(inspect.signature(chart_arrays))
            == "(chart, X, order=1, *, fields=('th', 'xi', 'E', 'G'))")
    assert str(inspect.signature(jets.seed)) == "(X, order)"
    assert [f.name for f in fields(ContactChart) if f.init] == [
        "m", "domain", "theta", "xi", "frame", "metric", "name", "factors"]


def test_transport_data_is_pinned():
    # the rates kernel reads these fields, and its Reeb velocity is optional;
    # the data take no switch: the Reeb term is read exactly when a Reeb
    # velocity is passed
    import inspect
    from dataclasses import fields

    from kcontact.connection import TransportData, transport_data

    assert [f.name for f in fields(TransportData)] == ["Ginv", "D", "xi_coeffs"]
    assert str(inspect.signature(TransportData.rates)) == "(self, u, w=None)"
    assert str(inspect.signature(transport_data)) == "(chart, X)"


def test_split_and_complex_structure_take_their_size_from_the_algebra():
    # the size of the matrices is the algebra's, the zero algebra's included
    import inspect

    from kcontact.holonomy import detect_complex_structure
    from kcontact.transverse import split_distribution

    assert str(inspect.signature(split_distribution)) == "(h: 'MatrixLieAlgebra')"
    assert str(inspect.signature(detect_complex_structure)) == "(h: 'MatrixLieAlgebra')"
