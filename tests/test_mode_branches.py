"""A ratchet on the lines of the package that branch on the numeric mode.

Both backends are meant to share one code path per job; each line that
picks a path by mode (or by the object dtype of exact parts) is counted,
and the count may only go down.
"""

import re
from pathlib import Path

import luorbit

_MODE_BRANCH = re.compile(
    r"mode *(==|!=) *(FLOAT|EXACT)|(EXACT|FLOAT) if |if .*exact else|dtype *(==|!=) *object"
)

#: The count today; lower it when a branch goes.
_MAX_MODE_BRANCHES = 18


def test_mode_branches_do_not_grow():
    package = Path(luorbit.__file__).parent
    lines = [
        f"{path.name}: {line.strip()}"
        for path in sorted(package.glob("*.py"))
        for line in path.read_text().splitlines()
        if _MODE_BRANCH.search(line)
    ]
    assert len(lines) <= _MAX_MODE_BRANCHES, "\n".join(lines)
