"""One digest of everything the front end makes of a fixed source corpus.

    PYTHONPATH=src python3 notes/front_end_digest.py

Compiles and links the six bundled scripts and the seed-7 splice corpus
of `tests/test_image.py::test_mutated_sources_never_crash_the_host` (350
spliced copies of each script), and prints one sha256 over, for each
source in turn, its image bytes or the type and text of the error it
raised.  The bound in a "nesting too deep" text is normalised, so two
checkouts that differ only in `parser.MAX_NESTING` agree.  Point
PYTHONPATH at another checkout's `src/` to digest that one; equal
digests mean the front ends generate the same images and report the
same errors for the whole corpus.
"""

import hashlib
import random
import re

from swarmlang import behaviors
from swarmlang.linker import compile_and_link

SCRIPTS = ("gradient", "consensus", "barrier", "segregation", "formation",
           "target_select")
BOUND = re.compile(r"at most \d+ levels")


def splice(text, rng):
    """The mutation of tests/test_image.py: 1-4 spans of up to 8
    characters each replaced by a span copied from elsewhere in `text`."""
    for _ in range(rng.randint(1, 4)):
        at, src = rng.randrange(len(text) + 1), rng.randrange(len(text) + 1)
        text = (text[:at] + text[src:src + rng.randint(0, 8)]
                + text[at + rng.randint(0, 8):])
    return text


def corpus():
    for name in SCRIPTS:
        yield behaviors.load_script(name)
    for name in SCRIPTS:
        source = behaviors.load_script(name)
        rng = random.Random(7)
        for _ in range(350):
            yield splice(source, rng)


def outcome(source):
    try:
        return b"image " + compile_and_link(source).encode()
    except Exception as exc:
        text = BOUND.sub("at most N levels", str(exc))
        return f"{type(exc).__name__} {text}".encode()


def main():
    digest = hashlib.sha256()
    counts = {"images": 0, "errors": 0}
    for source in corpus():
        out = outcome(source)
        counts["images" if out.startswith(b"image ") else "errors"] += 1
        digest.update(len(out).to_bytes(8, "little") + out)
    print(f"{digest.hexdigest()}  images={counts['images']} "
          f"errors={counts['errors']}")


if __name__ == "__main__":
    main()
