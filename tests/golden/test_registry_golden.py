"""Every golden cell still computes what ``registry.json`` recorded.

A refactor must leave allocations, pass fingerprints, source and job
keys, the Table 1 columns and simulated timing byte-identical; this
test compiles the whole grid (see :mod:`tests.golden.snapshot`) and
lists every cell and field that differs.
"""

from .snapshot import compute_all, load


def _diff(want: dict[str, object], got: dict[str, object]) -> list[str]:
    return [
        f"{field}: {want.get(field)!r} -> {got.get(field)!r}"
        for field in sorted(set(want) | set(got))
        if want.get(field) != got.get(field)
    ]


def test_registry_grid_matches_snapshot():
    want = load()
    got = compute_all()
    problems = [f"missing cell {cell}" for cell in sorted(set(want) - set(got))]
    problems += [f"new cell {cell}" for cell in sorted(set(got) - set(want))]
    for cell in sorted(set(want) & set(got)):
        problems += [f"{cell}: {line}" for line in _diff(want[cell], got[cell])]
    assert not problems, (
        f"{len(problems)} golden difference(s):\n" + "\n".join(problems)
    )
