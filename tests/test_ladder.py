import os
import subprocess
import sys
from pathlib import Path

LADDER = Path(__file__).resolve().parent.parent / "tools" / "ladder.py"


def test_ladder_stops_quietly_when_its_reader_goes_away():
    # the read end is closed before the ladder prints its first line
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        result = subprocess.run(
            [sys.executable, str(LADDER), "--quick", "--timeout", "0.01"],
            stdout=write_end, stderr=subprocess.PIPE, timeout=120,
        )
    finally:
        os.close(write_end)
    assert result.returncode == 1
    assert result.stderr == b""
