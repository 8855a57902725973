import random
import struct

import pytest

from swarmlang import behaviors
from swarmlang.asm import assemble, disassemble
from swarmlang.compiler import compile_source
from swarmlang.errors import AsmError, ImageError, LinkError
from swarmlang.image import MAGIC, BytecodeImage
from swarmlang.linker import compile_and_link, link

SAMPLE = """
DELTA = 50.
function f(a) { return a + 1 }
x = f(2)
s = "hello\\nworld"
"""


def test_binary_round_trip():
    img = compile_and_link(SAMPLE)
    data = img.encode()
    again = BytecodeImage.decode(data)
    assert again.encode() == data


def test_compile_link_is_deterministic():
    a = compile_and_link(SAMPLE).encode()
    b = compile_and_link(SAMPLE).encode()
    assert a == b


def test_disassemble_assemble_round_trip():
    img = compile_and_link(SAMPLE)
    listing = disassemble(img)
    assert assemble(listing).encode() == img.encode()


def test_round_trip_with_tricky_strings():
    img = compile_and_link('a = "semi;colon"\nb = "quote\\"and\\\\slash"\n'
                           'c = "tab\\there"')
    listing = disassemble(img)
    assert assemble(listing).encode() == img.encode()


def test_disassembly_of_simple_store():
    # golden: pushing 1 and storing the global `a`
    img = compile_and_link("a = 1")
    listing = disassemble(img)
    assert "PUSHI 1" in listing
    gstore = [ln for ln in listing.splitlines() if "GSTORE" in ln]
    assert len(gstore) == 1 and '"a"' in gstore[0]


def test_empty_script_gives_header_only_listing():
    img = compile_and_link("")
    listing = disassemble(img)
    assert listing.startswith(".image 1")
    # bootstrap + empty chunk only; no strings, no functions
    assert ".string" not in listing
    assert ".function" not in listing


def test_bad_magic_rejected():
    img = compile_and_link("a = 1")
    data = bytearray(img.encode())
    data[0:4] = b"NOPE"
    with pytest.raises(ImageError):
        BytecodeImage.decode(bytes(data))


def test_version_mismatch_rejected():
    img = compile_and_link("a = 1")
    data = bytearray(img.encode())
    data[4:6] = struct.pack("<H", 99)
    with pytest.raises(ImageError) as err:
        BytecodeImage.decode(bytes(data))
    assert "version" in str(err.value)


def test_truncated_image_reports_offset():
    data = compile_and_link("a = 1").encode()
    with pytest.raises(ImageError) as err:
        BytecodeImage.decode(data[:len(data) - 3])
    assert "offset" in str(err.value)


def test_truncated_mid_header():
    with pytest.raises(ImageError):
        BytecodeImage.decode(MAGIC + b"\x01")


def test_invalid_utf8_string_reports_its_offset():
    data = bytearray(compile_and_link('s = "hello"').encode())
    at = data.index(b"hello") + 1
    data[at] = 0xff
    with pytest.raises(ImageError, match="UTF-8") as err:
        BytecodeImage.decode(bytes(data))
    assert err.value.offset == at


def test_mutated_bundled_image_raises_only_image_errors():
    data = compile_and_link(behaviors.load_script("gradient")).encode()
    rng = random.Random(3)
    for _ in range(3000):
        at, byte = rng.randrange(len(data)), rng.randrange(256)
        bad = bytearray(data)
        bad[at] = byte
        try:
            BytecodeImage.decode(bytes(bad))
        except ImageError:
            pass
        except Exception as exc:
            pytest.fail(f"{type(exc).__name__} with byte {at} = {byte}: "
                        f"{exc}")


def test_single_unit_link_runs():
    unit = compile_source("a = 1")
    img = link([unit])
    assert img.code  # non-empty stream


def test_duplicate_function_across_units_rejected():
    u1 = compile_source("function f() { return 1 }", origin="one")
    u2 = compile_source("function f() { return 2 }", origin="two")
    with pytest.raises(LinkError) as err:
        link([u1, u2])
    assert "duplicate" in str(err.value)


def test_cross_unit_call(run_script):
    from swarmlang.vm import Vm
    u1 = compile_source("function helper(x) { return x * 2 }", origin="lib")
    u2 = compile_source("y = helper(21)", origin="main")
    vm = Vm(link([u1, u2]), 0, print_sink=lambda s: None)
    vm.step([])
    assert vm.get_global("y") == 42


def test_object_unit_symbols():
    unit = compile_source('function f(a) { var tmp = a\ncounter = tmp }\n'
                          'greeting = "hi"')
    symbols = dict(unit.symbols())
    assert symbols["counter"] == "global"
    assert symbols["greeting"] == "global"
    assert symbols["a"] == "local"
    assert symbols["tmp"] == "local"
    assert symbols["hi"] == "string-const"


def test_function_table_lists_top_level_functions():
    img = compile_and_link("function init() { a = 1 }\n"
                           "function step() { b = 2 }")
    assert set(img.function_offsets()) == {"init", "step"}


def test_debug_map_recovers_positions():
    img = compile_and_link("a = 1\nb = 2", origin="test.swl")
    # every debug entry must resolve through the shared string table
    for offset, line, col, oidx in img.debug:
        assert img.strings[oidx] == "test.swl"
    origin, line, col = img.position_at(img.debug[0][0])
    assert origin == "test.swl" and line >= 1


def test_assembler_rejects_gaps():
    img = compile_and_link("a = 1")
    listing = disassemble(img)
    lines = [ln for ln in listing.splitlines()
             if not ln.startswith("@0 ")]
    with pytest.raises(AsmError):
        assemble("\n".join(lines))


def test_assembler_rejects_unknown_opcode():
    with pytest.raises(AsmError):
        assemble(".image 1\n.code 1\n@0 FLY 1")


def test_assembler_requires_image_directive():
    with pytest.raises(AsmError):
        assemble(".code 0\n")
