import subprocess
import sys
from pathlib import Path

import pbsgame


def test_every_export_resolves():
    # a name deleted from its module but left in __all__ fails here
    missing = [name for name in pbsgame.__all__ if not hasattr(pbsgame, name)]
    assert missing == []
    assert len(set(pbsgame.__all__)) == len(pbsgame.__all__)


def test_cli_import_loads_no_scipy():
    # the runtime needs only numpy; scipy is a test-only reference
    probe = (
        "import sys, pbsgame.cli\n"
        "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
    )
    src = str(Path(pbsgame.__file__).resolve().parents[1])
    result = subprocess.run(
        [sys.executable, "-c", probe], cwd=src, capture_output=True, text=True, check=True
    )
    assert result.stdout.strip() == "[]"
