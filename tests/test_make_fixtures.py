"""fixtures/ is what scripts/make_fixtures.py writes from the builders."""

import importlib.util
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_fixtures_match_their_builders(tmp_path):
    spec = importlib.util.spec_from_file_location(
        "make_fixtures", ROOT / "scripts" / "make_fixtures.py"
    )
    script = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(script)
    script.OUT = tmp_path
    script.main()
    written = sorted(path.name for path in tmp_path.iterdir())
    shipped = sorted(path.name for path in (ROOT / "fixtures").iterdir())
    assert written == shipped
    for name in shipped:
        assert (tmp_path / name).read_bytes() == (ROOT / "fixtures" / name).read_bytes(), name
