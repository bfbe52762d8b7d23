"""Regenerate the frozen expected values for the fixture corpus.

Every number here is derived by a second, deliberately naive path:
Betti vectors come from fixtures.oracle_betti (dense Gauss-Jordan),
and every classification flag is recomputed from scratch with plain
set arithmetic on facet lists plus oracle link homology.  Nothing in
this script calls the library's homology, hochster or classify
modules, so agreement between the frozen values and the library is a
genuine two-implementation check.

The values land in the "expected" block of fixtures/manifest.json, the
one copy the test suite reads.

Usage:
    python tools/freeze_expected.py            # rewrite fixtures/manifest.json and *.cplx
"""

import json
import pathlib
import sys

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent.parent / "src"))

from qgor.fixtures import _RAW, oracle_betti  # noqa: E402
from qgor.homology import FieldSpec  # noqa: E402
from qgor.simplicial_core import SimplicialComplex, from_facets  # noqa: E402

FIELDS = [FieldSpec.rationals(), FieldSpec.prime(2), FieldSpec.prime(3)]


def maximal(faces):
    faces = sorted({tuple(sorted(set(f))) for f in faces}, key=len, reverse=True)
    out = []
    for f in faces:
        fs = set(f)
        if not any(fs < set(g) for g in out):
            out.append(f)
    return sorted(out, key=lambda f: (len(f), f))


def all_faces(facets):
    faces = set()
    for f in facets:
        n = len(f)
        for mask in range(1 << n):
            faces.add(tuple(f[i] for i in range(n) if mask >> i & 1))
    return faces


def link_facets(facets, sigma):
    ss = set(sigma)
    return maximal([tuple(v for v in f if v not in ss)
                    for f in facets if ss.issubset(f)])


def as_complex(facets, n):
    if not facets:
        return SimplicialComplex(n, ())
    if facets == [()]:
        return SimplicialComplex(n, ((),))
    return from_facets(facets, n)


def betti(facets, n, field):
    return oracle_betti(as_complex(facets, n), field).nonzero()


def connected(facets):
    verts = sorted({v for f in facets for v in f})
    if not verts:
        return False
    comp = {v: v for v in verts}

    def find(v):
        while comp[v] != v:
            comp[v] = comp[comp[v]]
            v = comp[v]
        return v

    for f in facets:
        for a in f[1:]:
            comp[find(f[0])] = find(a)
    return len({find(v) for v in verts}) == 1


def _facet_graph_connected(facets, dim):
    m = len(facets)
    parent = list(range(m))

    def find(i):
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return i

    for i in range(m):
        for j in range(i + 1, m):
            if len(set(facets[i]) & set(facets[j])) == dim:
                parent[find(i)] = find(j)
    return len({find(i) for i in range(m)}) == 1


def core_facets(facets):
    while True:
        common = set(facets[0]).intersection(*map(set, facets[1:])) if facets else set()
        if not common:
            return facets
        facets = maximal([tuple(v for v in f if v not in common) for f in facets])
        if facets == [()]:
            return facets


def derive(name, n, raw_facets):
    facets = maximal(raw_facets)
    faces = sorted(all_faces(facets), key=lambda f: (len(f), f))
    dim = max(len(f) for f in facets) - 1
    pure = all(len(f) == dim + 1 for f in facets)

    ridge_ok = pure and all(
        sum(1 for f in facets if set(r).issubset(f)) == 2
        for r in faces if len(r) == dim
    )
    normal = all(
        connected(link_facets(facets, s))
        for s in faces if len(s) <= dim - 1
    )
    strongly = pure and _facet_graph_connected(facets, dim)
    normal_pm = pure and normal and ridge_ok
    pseudo = pure and ridge_ok and strongly

    link_b = {}
    for field in FIELDS:
        key = field.spec_string()
        link_b[key] = {
            s: betti(link_facets(facets, s), n, field) for s in faces
        }

    out = {"betti": {}, "flags": {}, "depth": {}, "a_invariant": {}}
    b_top_q = betti(facets, n, FIELDS[0]).get(dim, 0)
    for field in FIELDS:
        key = field.spec_string()
        b = betti(facets, n, field)
        out["betti"][key] = b

        lb = link_b[key]
        link_dim = {s: (max(len(f) for f in link_facets(facets, s)) - 1
                        if link_facets(facets, s) else None)
                    for s in faces}

        def low_vanishes(s):
            ld = link_dim[s]
            top = -1 if ld is None else ld
            return all(lb[s].get(i, 0) == 0 for i in range(-1, top))

        cm = all(low_vanishes(s) for s in faces)
        buchs = all(low_vanishes(s) for s in faces if s)

        def sphere(s):
            ld = link_dim[s]
            want = {} if ld is None else {ld: 1}
            if ld is None:
                want = {-1: 1}
            return lb[s] == want

        manifold = pure and all(sphere(s) for s in faces if s)
        sphere_flag = manifold and b == ({dim: 1} if dim >= -1 else {})

        qg = normal_pm and b.get(dim, 0) != 0

        cf = core_facets(list(facets))
        if cf == [()]:
            gor = True
        else:
            cn = max(v for f in cf for v in f)
            c_faces = sorted(all_faces(cf), key=lambda f: (len(f), f))
            c_dim = max(len(f) for f in cf) - 1
            c_pure = all(len(f) == c_dim + 1 for f in cf)
            c_ridge = c_pure and all(
                sum(1 for f in cf if set(r).issubset(f)) == 2
                for r in c_faces if len(r) == c_dim
            )
            c_normal = all(
                connected(link_facets(cf, s))
                for s in c_faces if len(s) <= c_dim - 1
            )
            c_qg = (c_pure and c_ridge and c_normal
                    and betti(cf, cn, field).get(c_dim, 0) != 0)
            c_cm = all(
                all(betti(link_facets(cf, s), cn, field).get(i, 0) == 0
                    for i in range(-1, (max(len(f) for f in link_facets(cf, s)) - 1)
                                   if link_facets(cf, s) else -1))
                for s in c_faces
            )
            gor = c_qg and c_cm

        hoch_is = sorted(
            r + len(s) + 1
            for s in faces for r, v in lb[s].items() if v
        )
        depth = hoch_is[0]
        d_krull = dim + 1
        a_inv = -min(len(s) for s in faces
                     for r, v in lb[s].items()
                     if v and r + len(s) + 1 == d_krull)

        out["flags"][key] = {
            "pure": pure,
            "strongly_connected": strongly,
            "normal": normal,
            "pseudomanifold_ridge_condition": ridge_ok,
            "normal_pseudomanifold": normal_pm,
            "orientable": pseudo and b_top_q != 0,
            "buchsbaum": buchs,
            "homology_manifold": manifold,
            "homology_sphere": sphere_flag,
            "cohen_macaulay": cm,
            "quasi_gorenstein": qg,
            "gorenstein": gor,
        }
        out["depth"][key] = depth
        out["a_invariant"][key] = a_inv
    return out


def main():
    root = pathlib.Path(__file__).resolve().parent.parent
    fix_dir = root / "fixtures"
    fix_dir.mkdir(exist_ok=True)

    manifest = {}
    for name, n, raw, provenance, description in _RAW:
        exp = derive(name, n, raw)
        facets = maximal(raw)
        lines = [f"# {name}: {description}", f"n={n}"]
        lines += [" ".join(map(str, f)) for f in facets]
        (fix_dir / f"{name}.cplx").write_text("\n".join(lines) + "\n", encoding="utf-8")
        manifest[name] = {
            "file": f"{name}.cplx",
            "n_vertices": n,
            "facets": [list(f) for f in facets],
            "provenance": provenance,
            "description": description,
            "expected": {
                "betti": {k: {str(j): d for j, d in sorted(v.items())}
                          for k, v in exp["betti"].items()},
                "flags": exp["flags"],
                "depth": exp["depth"],
                "a_invariant": exp["a_invariant"],
            },
            "expected_provenance": {
                "betti": "oracle gauss-jordan",
                "flags": "set-logic + oracle link homology",
                "depth": "oracle link homology, graded minimum",
                "a_invariant": "oracle link homology, top-degree support",
            },
        }
    (fix_dir / "manifest.json").write_text(
        json.dumps(manifest, indent=2, sort_keys=True) + "\n", encoding="utf-8"
    )

    print(f"wrote {fix_dir}/manifest.json and {len(manifest)} .cplx files")


if __name__ == "__main__":
    main()
