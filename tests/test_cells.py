"""The ``%.6g`` mode of the cell kernel: every cell equals ``"%.6g" % x``."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from qlert import _cells, render
from qlert import mesh as qm


def g6_text(values):
    """The text of each ``_g6_cells`` cell, whose last byte is free for a
    separator."""
    cells = _cells._g6_cells(np.asarray(values, dtype=np.float64))
    assert cells.shape == (len(values), _cells._G6_WIDTH)
    assert (cells[:, -1] == _cells._PAD).all()
    cells[:, -1] = 10
    return cells.tobytes().translate(None, _cells._PAD_BYTE).decode() \
        .splitlines()


def readme_cable(refinement):
    centers = [(0.35e-3 * np.cos(np.radians(30 + 60 * k)),
                0.35e-3 * np.sin(np.radians(30 + 60 * k))) for k in range(6)]
    return qm.generate_petal_cable(0.6e-3, centers, 0.12e-3, refinement)


class TestPercentG:
    def test_cells_equal_percent_g_exactly(self):
        rng = np.random.default_rng(29)
        bits = rng.integers(0, 2**64, size=2**18, dtype=np.uint64)
        # ties: seven significant digits ending in 5, exact (1234575.0 is
        # 1.23458e+06, half to even) or as the nearest double (5263.715),
        # and odd multiples of 2**-n, whose last digit is a 5
        sevens = [float(f"{d}5e{e}") for d, e in zip(
            rng.integers(10 ** 5, 10 ** 6, 20_000),
            rng.integers(-12, 15, 20_000))]
        odd = np.arange(1, 200, 2.0)
        ties = np.concatenate([[1234575.0, 1234565.0, 5263.715], sevens]
                              + [np.ldexp(odd, -n) for n in range(60)])
        # the decades where %g switches between its two forms
        edges = np.array([float(f"{m}e{k}") for k in range(-5, 7)
                          for m in (1, 9.999995, 9.9999949999, 9.99999)])
        near = np.concatenate([ties, edges])
        signed = np.concatenate([
            near, np.nextafter(near, 0), np.nextafter(near, np.inf),
            rng.uniform(0, 500, 10_000), np.exp(rng.uniform(-45, 20, 10_000)),
            [0.0, np.nan, np.inf, 5e-324, 2.0**-1022, 1e6, 1e-17, 999999.5,
             123450.0, 0.5, -2.5e-300]])
        values = np.concatenate([bits.view(np.float64), signed, -signed])
        # With _cells._MARGIN set to 0 the filter prints 5263.715 as
        # 5263.71: the double nearest 5263.715 lies just above it, but its
        # product with 100 rounds to 526371.5, and only the product's exact
        # error (a near-tie of the sevens above) says which way to round.
        text = g6_text(values)
        assert text == ["%.6g" % v for v in values.tolist()]
        assert {"1.23458e+06", "1.23456e+06", "5263.72", "-0", "1e+06",
                "0.0001", "1e-05", "123450", "0.5", "2.5e-300"} <= set(text)

    @settings(max_examples=300, deadline=None)
    @given(st.lists(st.floats(), min_size=1, max_size=40))
    def test_any_floats_equal_percent_g(self, values):
        assert g6_text(values) == ["%.6g" % v for v in values]

    def test_fallback_takes_few_node_coordinates(self, monkeypatch):
        # the README cable at refinement 5: at most 1 % of its nodes'
        # pixel coordinates go to %
        calls = []
        exact = _cells._percent_g

        def counted(value):
            calls.append(value)
            return exact(value)

        monkeypatch.setattr(_cells, "_percent_g", counted)
        mesh = readme_cable(5)
        svg = render.heatmap(mesh, np.ones(mesh.element_count))
        assert svg.count("<polygon") == mesh.element_count
        assert len(calls) <= 0.01 * 2 * len(mesh.nodes)
