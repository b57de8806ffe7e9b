"""Golden-file regressions: pinned scenario records must stay bit-identical.

Every cell of :func:`repro.scenarios.builtin.golden_matrix` has its
deterministic payload checked into ``tests/golden/``.  Each cell is
executed under three engine variants — serial (the production path),
serial scalar (every ``Mapper.search`` replaced by the tests-side scalar
reference search of ``tests/reference.py``) and ``workers=2`` — and all
three must match the golden file float-for-float.  Together they pin (a)
the cost model's numbers against drift from future perf work and (b) the
engine's bit-identity guarantee against the scalar oracle and across the
worker count.

Regenerate after an *intended* numeric change with::

    PYTHONPATH=src python -m pytest tests/test_scenarios_golden.py --update-golden

(the update run still asserts the variants agree before pinning).
"""

import json
from contextlib import nullcontext
from pathlib import Path
from unittest import mock

import pytest

from reference import reference_mapper_search
from repro.layoutloop.mapper import Mapper
from repro.scenarios import diff_payloads, golden_matrix, run_cell, slugify

GOLDEN_DIR = Path(__file__).parent / "golden"
SCENARIOS = list(golden_matrix())
VARIANTS = [
    ("serial-vectorized", 1, False),
    ("serial-scalar", 1, True),
    ("workers2-vectorized", 2, False),
]

# Each (cell, variant) is a real engine run; share them across the
# per-variant tests instead of recomputing.
_PAYLOADS = {}


def _payload(scenario, workers, reference):
    key = (scenario.name, workers, reference)
    if key not in _PAYLOADS:
        oracle = (mock.patch.object(Mapper, "search", reference_mapper_search)
                  if reference else nullcontext())
        with oracle:
            record = run_cell(scenario, workers=workers).record
        _PAYLOADS[key] = record.deterministic_payload()
    return _PAYLOADS[key]


def _golden_path(scenario) -> Path:
    return GOLDEN_DIR / f"{slugify(scenario.name)}.json"


@pytest.mark.parametrize("variant,workers,reference", VARIANTS,
                         ids=[v[0] for v in VARIANTS])
@pytest.mark.parametrize("scenario", SCENARIOS,
                         ids=[s.name for s in SCENARIOS])
def test_golden_record_bit_identical(scenario, variant, workers, reference,
                                     update_golden):
    payload = _payload(scenario, workers, reference)
    path = _golden_path(scenario)
    if update_golden:
        # Pin the canonical (serial, production) payload; the comparison
        # below then asserts every variant agrees with it before it lands.
        GOLDEN_DIR.mkdir(exist_ok=True)
        canonical = _payload(scenario, 1, False)
        path.write_text(json.dumps(canonical, indent=2, sort_keys=True)
                        + "\n")
    if not path.exists():
        pytest.fail(f"golden file {path} missing; run with --update-golden")
    expected = json.loads(path.read_text())
    diffs = diff_payloads(expected, payload)
    assert not diffs, (
        f"{scenario.name} [{variant}] drifted from {path.name}:\n  "
        + "\n  ".join(diffs))


def test_golden_directory_has_no_orphans():
    """Every pinned file corresponds to a current golden cell."""
    expected = {_golden_path(s).name for s in SCENARIOS}
    actual = {p.name for p in GOLDEN_DIR.glob("*.json")}
    assert actual == expected


def test_golden_records_embed_reproducibility_metadata():
    """Pinned payloads carry the seed/config needed to re-run them — and no
    provenance that would churn on a version bump."""
    for scenario in SCENARIOS:
        data = json.loads(_golden_path(scenario).read_text())
        assert data["seed"] == scenario.config.seed
        assert data["config"]["max_mappings"] == scenario.config.max_mappings
        assert "key" not in data and "repro_version" not in data
        assert data["layers"], f"{scenario.name} pinned an empty record"
