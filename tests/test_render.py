"""SVG primitives: byte determinism, colormap bounds, input checking."""

import re
import xml.dom.minidom as minidom

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import reference_writers as ref
from qlert import render
from qlert import mesh as qm


#: a sweep's lambda grid, descending
XS = np.geomspace(1e-8, 1e-1, 8)[::-1]


@pytest.fixture(scope="module")
def small_mesh():
    return qm.generate_disk(1.0, 2)


def readme_cable(refinement):
    """The README cable's geometry: six petals on a 0.35 mm ring."""
    centers = [(0.35e-3 * np.cos(np.radians(30 + 60 * k)),
                0.35e-3 * np.sin(np.radians(30 + 60 * k))) for k in range(6)]
    return qm.generate_petal_cable(0.6e-3, centers, 0.12e-3, refinement)


class TestColormap:
    def test_table_has_256_hex_entries(self):
        assert len(render.COLOR_TABLE) == 256
        assert all(c.startswith("#") and len(c) == 7
                   for c in render.COLOR_TABLE)

    def test_endpoints_and_clamping(self):
        assert render.color_at(0.0) == render.COLOR_TABLE[0]
        assert render.color_at(1.0) == render.COLOR_TABLE[-1]
        assert render.color_at(-5.0) == render.COLOR_TABLE[0]
        assert render.color_at(7.0) == render.COLOR_TABLE[-1]
        assert render.color_at(float("nan")) == "#b0b0b0"

    def test_matches_the_scalar_rule_everywhere(self):
        # every table boundary k/255 +- 1/510 and its neighbours in ulps
        edges = (np.arange(256) + 0.5) / 255.0
        t = np.concatenate([
            edges, np.nextafter(edges, 0.0), np.nextafter(edges, 1.0),
            np.linspace(-0.5, 1.5, 2001),
            [np.nan, np.inf, -np.inf, -0.0, 0.0, 1.0, 5e-324],
        ])
        got = [render._PALETTE[i] for i in render._color_index(t).tolist()]
        assert got == [ref.color_at(v) for v in t]
        assert [render.color_at(v) for v in t[:50]] == got[:50]


class TestHeatmap:
    def test_deterministic_and_well_formed(self, small_mesh):
        values = np.hypot(*qm.element_centroids(small_mesh).T)
        a = render.heatmap(small_mesh, values, title="radius", comment="c")
        b = render.heatmap(small_mesh, values, title="radius", comment="c")
        assert a == b
        minidom.parseString(a)
        assert a.count("<polygon") == small_mesh.element_count
        assert "<!-- c -->" in a

    def test_nan_values_render_gray(self, small_mesh):
        values = np.full(small_mesh.element_count, np.nan)
        values[0] = 1.0
        svg = render.heatmap(small_mesh, values)
        assert "#b0b0b0" in svg

    def test_rejects_wrong_length(self, small_mesh):
        with pytest.raises(ValueError, match="per element"):
            render.heatmap(small_mesh, np.ones(3))

    def test_comment_is_escaped(self, small_mesh):
        svg = render.heatmap(small_mesh, np.ones(small_mesh.element_count),
                             comment="a < b & c")
        minidom.parseString(svg)
        assert "a &lt; b &amp; c" in svg

    def test_colorbar_spans_the_finite_values(self, small_mesh):
        m = small_mesh.element_count
        values = np.linspace(-1.0, 2.0, m)
        values[2:-1:5] = np.nan
        values[1] = np.inf
        for values, lo, hi in ((values, "-1", "2"),
                               (np.full(m, 3.25), "3.25", "4.25"),
                               (np.full(m, np.nan), "0", "1")):
            svg = render.heatmap(small_mesh, values)
            # the colorbar's two labels are the figure's last texts
            assert re.findall(r">([^<]*)</text>", svg)[-2:] == [lo, hi]


class TestMatchesPerValueWriters:
    """The array writers produce the per-value reference writers' bytes."""

    @pytest.fixture(autouse=True)
    def small_blocks(self, monkeypatch):
        # several element blocks and a remainder on the cable
        monkeypatch.setattr(render, "_BLOCK", 97)

    @pytest.fixture(scope="class")
    def cable(self):
        return readme_cable(3)

    def single_element(self):
        return qm.Mesh(
            nodes=[[0.0, 0.0], [1.0, 0.0], [0.2, 0.7]], elements=[[0, 1, 2]],
            element_region=["matrix"],
            boundary_edges=[[0, 1, -1], [1, 2, -1], [2, 0, -1]],
        )

    def unused_node(self):
        # node 2 belongs to no element and stretches the frame past the
        # elements; the nodes after it keep their indices
        return qm.Mesh(
            nodes=[[0.0, 0.0], [1.0, 0.0], [-0.4, 1.3], [1.0, 1.0],
                   [0.0, 1.0]],
            elements=[[0, 1, 3], [0, 3, 4]],
            element_region=["matrix", "matrix"],
            boundary_edges=[[0, 1, -1], [1, 3, -1], [3, 4, -1], [4, 0, -1]],
        )

    def value_cases(self, mesh):
        m = mesh.element_count
        r = np.hypot(*qm.element_centroids(mesh).T)
        special = r.copy()
        special[::7] = np.nan
        special[1::11] = np.inf
        special[2::13] = -np.inf
        yield {"values": r}
        yield {"values": special}
        yield {"values": np.full(m, np.nan)}
        yield {"values": np.full(m, 3.25)}
        yield {"values": np.full(m, -0.0)}
        yield {"values": r * 1e-9}
        yield {"values": np.linspace(-1e300, 1e300, m)}

    @pytest.mark.parametrize("kind", ["disk", "cable", "single"])
    def test_heatmap(self, kind, small_mesh, cable):
        mesh = {"disk": small_mesh, "cable": cable,
                "single": self.single_element()}[kind]
        lines = ref.region_outlines(mesh) if kind == "cable" else ()
        for case in self.value_cases(mesh):
            values = case.pop("values")
            kwargs = dict(title="t", comment="c", outlines=lines, **case)
            with np.errstate(all="ignore"):
                expect = ref.heatmap(mesh, values, **kwargs)
            assert render.heatmap(mesh, values, **kwargs) == expect

    @pytest.mark.parametrize("kind", ["disk", "cable", "single"])
    def test_mask_overlay(self, kind, small_mesh, cable):
        mesh = {"disk": small_mesh, "cable": cable,
                "single": self.single_element()}[kind]
        m = mesh.element_count
        rng = np.random.default_rng(3)
        segs = render.edge_segments(mesh, mesh.elements[:3, :2])
        lines = ref.region_outlines(mesh) if kind == "cable" else [segs]
        for mask in (rng.random(m) < 0.3, np.zeros(m, bool), np.ones(m, bool)):
            for boundary in ((), segs, np.zeros((0, 4))):
                kwargs = dict(true_boundary=boundary, title="m", comment="c",
                              outlines=lines)
                assert (render.mask_overlay(mesh, mask, **kwargs)
                        == ref.mask_overlay(mesh, mask, **kwargs))

    @pytest.mark.parametrize("kind", ["cable-r5", "cable-r6", "unused-node",
                                      "tall"])
    def test_node_strings_shared_by_corners(self, kind):
        # one coordinate string per node, joined per element; refinement 6
        # is the benchmark's largest mesh
        if kind.startswith("cable"):
            mesh = readme_cable(int(kind[-1]))
            lines = ref.region_outlines(mesh)
        elif kind == "tall":
            # pixel rows up to 4.6e8: scientific and out-of-table cells
            mesh = qm.Mesh(
                nodes=[[0.0, 0.0], [1e-6, 0.0], [0.0, 1.0], [1e-6, 0.3]],
                elements=[[0, 1, 2], [1, 3, 2]],
                element_region=["matrix", "matrix"],
                boundary_edges=[[0, 1, -1], [1, 3, -1], [3, 2, -1],
                                [2, 0, -1]])
            lines = [render.edge_segments(mesh, mesh.elements[:, :2])]
        else:
            mesh = self.unused_node()
            lines = [render.edge_segments(mesh, mesh.elements[:, :2])]
        values = np.hypot(*qm.element_centroids(mesh).T)
        values[::5] = np.nan
        kwargs = dict(title="t", comment="c", outlines=lines)
        assert (render.heatmap(mesh, values, **kwargs)
                == ref.heatmap(mesh, values, **kwargs))
        mask = np.random.default_rng(5).random(mesh.element_count) < 0.3
        segs = render.edge_segments(mesh, mesh.elements[:3, :2])
        kwargs = dict(true_boundary=segs, title="m", comment="c",
                      outlines=lines)
        assert (render.mask_overlay(mesh, mask, **kwargs)
                == ref.mask_overlay(mesh, mask, **kwargs))

    def test_pixel_coordinates_equal_the_scalar_frame(self, cable):
        # bit for bit, not just at the %.6g the SVG shows
        frame, _ = render._mesh_frame(cable, 480, top=28.0)
        old_frame, _ = ref._mesh_frame(cable, 480, top=28.0)
        corners = cable.nodes[cable.elements]
        rows = render._pixel_rows(frame, corners[..., 0], corners[..., 1])
        expect = [[c for x, y in tri for c in (old_frame.x(x), old_frame.y(y))]
                  for tri in corners]
        assert rows == expect

    def test_segments(self, cable):
        frame, _ = render._mesh_frame(cable, 480, top=28.0)
        old_frame, _ = ref._mesh_frame(cable, 480, top=28.0)
        extra = [np.zeros((0, 4)), [(0.0, 0.0, 1e-4, -2e-4)]]
        for segs in ref.region_outlines(cable) + extra:
            for width in (1.0, 0.8, 2):
                layers = [([segs], "#202020", width)]
                assert ("\n".join(render._segments(frame, layers))
                        == "\n".join(ref._segments(old_frame, segs,
                                                    "#202020", width)))

    @pytest.mark.parametrize("series", [
        [("e2", XS, 3.0 * XS**1.7), ("einf", XS, np.sqrt(XS))],
        [("a", XS, np.where(XS > 1e-5, XS, np.nan)),
         ("b", XS, -XS), ("c", XS, XS * 0.0 + 2.0)],
        [("one", [0.5], [0.25])],
        [("s", [1.0, 2.0, 3.0], [1.0, np.inf, 3.0]),
         *[(f"k{k}", XS, XS + k) for k in range(5)]],
        [("e2", XS, XS * 0.0), ("einf", XS, np.full_like(XS, np.nan))],
    ], ids=["sweep", "dropped-points", "one-point", "many-series", "empty"])
    def test_line_plot(self, series):
        kwargs = dict(title="t", xlabel="x", ylabel="y", comment="c")
        assert (render.line_plot(series, **kwargs)
                == ref.line_plot(series, **kwargs))

    @settings(max_examples=40, deadline=None)
    @given(st.lists(
        st.floats(allow_nan=True, allow_infinity=True, width=64),
        min_size=24, max_size=24,
    ))
    def test_heatmap_random_values(self, values):
        mesh = qm.generate_disk(1.0, 1)
        values = np.asarray(values)
        with np.errstate(all="ignore"):
            expect = ref.heatmap(mesh, values)
            assert render.heatmap(mesh, values) == expect


class TestMaskOverlay:
    def test_fills_flagged_elements(self, small_mesh):
        mask = np.zeros(small_mesh.element_count, dtype=bool)
        mask[:5] = True
        svg = render.mask_overlay(small_mesh, mask, title="flags")
        minidom.parseString(svg)
        assert svg.count("#e8a33d") == 10  # fill + matching stroke
        with pytest.raises(ValueError, match="per element"):
            render.mask_overlay(small_mesh, mask[:-1])

    def test_true_boundary_is_stroked(self, small_mesh):
        mask = np.zeros(small_mesh.element_count, dtype=bool)
        mask[0] = True
        segs = np.array([[0.0, 0.0, 0.5, 0.5]])
        svg = render.mask_overlay(small_mesh, mask, true_boundary=segs)
        assert "#b02020" in svg


class TestLinePlot:
    def test_log_log_plot_has_decade_ticks(self):
        xs = np.geomspace(1e-4, 1.0, 9)
        svg = render.line_plot([("err", xs, xs**2)], xlabel="x", ylabel="y")
        minidom.parseString(svg)
        for decade in ("0.0001", "0.001", "0.01", "0.1", "1"):
            assert f">{decade}</text>" in svg

    def test_nan_points_are_dropped(self):
        ys = np.array([1.0, np.nan, 3.0])
        svg = render.line_plot([("s", np.arange(1.0, 4.0), ys)])
        assert svg.count(",") >= 2
        minidom.parseString(svg)

    def test_all_nan_series_draws_an_empty_frame(self):
        svg = render.line_plot([("s", [1.0], [np.nan])], xlabel="x")
        assert "no positive values" in svg and ">x</text>" in svg
        assert "<polyline" not in svg
        minidom.parseString(svg)

    def test_multiple_series_get_distinct_colors(self):
        xs = np.arange(4.0)
        svg = render.line_plot([("a", xs, xs + 1), ("b", xs, xs + 2)])
        assert "#27608d" in svg and "#c03a2b" in svg
