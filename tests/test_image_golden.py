"""Recorded digests of linked images and their listings.

For each bundled script, the barrier+driver link and a constants-heavy
source, the sha256 of `encode()` and of `disassemble()` must match the
values below.  They pin the pool order, the constant encodings and the
listing text, so a change to the compiler, linker or assembler that moves
a single byte shows up here.

Regenerate only for a change that is meant to alter images:

    PYTHONPATH=src python tests/test_image_golden.py
"""

import hashlib

import pytest

from swarmlang import behaviors
from swarmlang.asm import assemble, disassemble
from swarmlang.compiler import compile_source
from swarmlang.linker import link
from swarmlang.sim.experiments import BARRIER_DRIVER

CONSTANTS = """
a = 0.0
b = -0.0
c = 1.5
d = 3000000000
e = -3000000000
f = 1.5 + 0.0 - -0.0
s = "same"
t = "same"
u = { same = "same", zero = 0.0, big = 3000000000 }
function g(v) { return v * 1.5 + -3000000000 + 3000000000 }
h = "same" + "other" + "same"
"""


def _sources():
    out = {name: [(f"{name}.swl", behaviors.load_script(name))]
           for name in sorted(behaviors.manifest())}
    out["barrier+driver"] = [("barrier.swl", behaviors.load_script("barrier")),
                             ("barrier_driver.swl", BARRIER_DRIVER)]
    out["constants"] = [("constants.swl", CONSTANTS)]
    return out


def _image(name):
    return link([compile_source(text, origin)
                 for origin, text in _sources()[name]])


def digests(name):
    img = _image(name)
    return (hashlib.sha256(img.encode()).hexdigest(),
            hashlib.sha256(disassemble(img).encode()).hexdigest())


GOLDEN = {
    # name: (sha256 of encode(), sha256 of disassemble())
    'barrier': (
        '3391b13116e22d4e95787810874383703954d33bc875980582742512a37142b1',
        'ebc4aee7fffdafc6770d930e11601e5e2e4414e75e1d8765a1d690d964ea5628'),
    'barrier+driver': (
        '17c371517c2ba6450d9f1cc206c70f05c4d5d053398ea918ff6178095e9f2e85',
        '678b76be7d6eaa9d839196384e323a7aebe4727a3f27c872bedde7eafce99f3b'),
    'consensus': (
        '9ba6d6fd063edc2130442639826572c41c71cbe0fc6e4a1628145252c9a15585',
        '173f8cb79bd2db5731bc0105f6e499f75db26268715d572805f49fd6722bf80c'),
    'constants': (
        '41d924ffcb30d53052529cb3b6ab8730509f13afacfe541e9efb691f0cdc1885',
        '71b70087b4fc9fd7a7e6c9fdec3dcf73fa8061feac81294b4b745f95eeef58d9'),
    'formation': (
        '2743031c6b31d0ebc217bea14ac96754b78fdaeb9325b8877b3ae66fadb2914f',
        '751d0d1061e6143f90a29b1af72439608c2fa0ef6ddb89d4e04e512efbbea776'),
    'gradient': (
        'e52b160b54dc58c19c18a8f17ec638f4e595ff2f847f74fcd5bd84440ddc9ae5',
        'e0c031e946b7b1cd0ca4ef72c224be96e85c94977c14cd8fa6c7dd1173c9331b'),
    'segregation': (
        '4768c636fc14b071ba44016d881cf49fd8822ba6ea82d81d3de2517a16cad99e',
        '2ae69d8ccc15e1833e93ce5f782dd99703f1670c77f6f88623b7f5c6295a3d36'),
    'target_select': (
        'ec9a2448a2dcd0409ec2cc329e730eba9aff33cf091053c0562e1600aea36d68',
        'af2c77de6ee98e3a9cfd195992fb2c30700af2b049292996296887df557739a4'),
}


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_image_and_listing_match_recorded_digests(name):
    assert digests(name) == GOLDEN[name]


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_listing_reassembles_to_the_same_image(name):
    img = _image(name)
    assert assemble(disassemble(img)).encode() == img.encode()


def test_every_source_has_a_recorded_digest():
    assert sorted(GOLDEN) == sorted(_sources())


if __name__ == "__main__":
    for name in sorted(_sources()):
        encoded, listing = digests(name)
        print(f"    {name!r}: (\n        {encoded!r},\n        {listing!r}),")
