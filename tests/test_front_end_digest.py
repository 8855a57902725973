"""notes/front_end_digest.py: one digest of what the front end makes of a
fixed corpus of bundled and spliced scripts."""

import importlib.util
from pathlib import Path

PATH = Path(__file__).resolve().parents[1] / "notes" / "front_end_digest.py"
_spec = importlib.util.spec_from_file_location("front_end_digest", PATH)
front_end_digest = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(front_end_digest)

# the images and error texts of the whole corpus; a change to the lexer,
# parser, compiler or linker that moves any of them moves this line
DIGEST = ("94c818a9a1bfe38b058c22f6bab97aff985c1a85cc2ae4349ebcf970184690ce"
          "  images=667 errors=1439")


def test_front_end_digest_is_pinned(capsys):
    front_end_digest.main()
    assert capsys.readouterr().out == DIGEST + "\n"
