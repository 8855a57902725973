import functools
import random
import struct
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from swarmlang import behaviors
from swarmlang import image as image_mod
from swarmlang import opcodes as op
from swarmlang import vm as vm_mod
from swarmlang.asm import assemble, disassemble
from swarmlang.compiler import compile_source
from swarmlang.errors import (AsmError, CompileError, ImageError, LinkError,
                             SwarmlangError)
from swarmlang.image import (MAGIC, MAX_LOCALS, BytecodeImage,
                             encode_instruction)
from swarmlang.linker import compile_and_link, link
from swarmlang.vm import Vm

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


LINE_BREAKS = ["\r", "\x0b", "\x0c", "\x1c", "\x1d", "\x1e", "\x85",
               "\u2028", "\u2029"]


@pytest.mark.parametrize("ch", LINE_BREAKS,
                         ids=[hex(ord(c)) for c in LINE_BREAKS])
def test_round_trip_with_line_break_characters_in_strings(ch):
    # str.splitlines() breaks at each of these; a listing line ends at \n
    img = compile_and_link(f'x = "a{ch}b"\ny = "{ch}"')
    assert assemble(disassemble(img)).encode() == img.encode()


def test_crlf_listing_assembles():
    img = compile_and_link(SAMPLE)
    listing = disassemble(img).replace("\n", "\r\n")
    assert assemble(listing).encode() == img.encode()


@pytest.mark.parametrize("literal",
                         ['"a\\q"', '"abc', '"a" "b"', "abc", "'a'"])
def test_assembler_rejects_bad_string_literals(literal):
    listing = f".image 1\n.string 0 {literal}\n.code 0\n"
    with pytest.raises(AsmError) as info:
        assemble(listing)
    assert info.value.line == 2


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


WIDE = "a = 1\nb = 9999999999"  # an i32 operand and an i64 constant


@pytest.mark.parametrize("line, bad", [
    ("@21 PUSHI 1", "@21 PUSHI 99999999999"),
    ("@21 PUSHI 1", "@21 PUSHI -2147483649"),
    ("@26 GSTORE 1", "@26 GSTORE -1"),
    (".debug @21 1:5 0", ".debug @21 99999999999:5 0"),
    (".debug @26 1:1 0", ".debug @26 1:1 -2"),
    (".debug @26 1:1 0", ".debug @-26 1:1 0"),
    (".string 1 \"a\"", ".string -1 \"a\""),
    (".const 0 i 9999999999", ".const 0 i 9223372036854775808"),
])
def test_assembler_rejects_fields_past_their_width(line, bad):
    listing = disassemble(compile_and_link(WIDE)).split("\n")
    at = [ln.split(" ;")[0] for ln in listing].index(line)
    listing[at] = bad
    with pytest.raises(AsmError, match=f"line {at + 1}: .* does not fit"):
        assemble("\n".join(listing))


def test_assembler_takes_fields_at_their_width():
    listing = disassemble(compile_and_link(WIDE))
    for line, edge in (("@21 PUSHI 1", "@21 PUSHI -2147483648"),
                       (".debug @21 1:5 0", ".debug @21 4294967295:5 0"),
                       (".const 0 i 9999999999",
                        ".const 0 i -9223372036854775808")):
        img = assemble(listing.replace(line, edge))
        assert BytecodeImage.decode(img.encode()).encode() == img.encode()


def test_verifier_rejects_negative_name_and_origin_indices():
    with pytest.raises(ImageError, match="function name index -1"):
        BytecodeImage(strings=["f"], functions=[(-1, 0)],
                      code=compile_and_link("a = 1").code).program
    with pytest.raises(ImageError, match="debug origin index -2"):
        BytecodeImage(strings=["<script>", "a"], debug=[(21, 1, 1, -2)],
                      code=compile_and_link("a = 1").code).program


def test_assembler_rejects_unknown_opcode():
    with pytest.raises(AsmError):
        assemble(".image 1\n.code 1\n@0 FLY 1")


def test_assembler_requires_image_directive():
    with pytest.raises(AsmError):
        assemble(".code 0\n")


def test_assembler_rejects_unsupported_version():
    listing = disassemble(compile_and_link("a = 1"))
    with pytest.raises(ImageError, match="version 99"):
        assemble(listing.replace(".image 1", ".image 99", 1))


# --- hostile images: only ImageError at load, or a fault of the one robot

SCRIPTS = ("gradient", "consensus", "barrier", "segregation", "formation",
           "target_select")


@functools.lru_cache(maxsize=None)
def bundled_image_bytes(name):
    data = compile_and_link(behaviors.load_script(name)).encode()
    BytecodeImage.decode(data)  # the unmutated image verifies
    return data


def host_crash(data, stepped=None):
    """Load `data` and run it for 3 steps; describe any escape, else None.

    A mutant that loads runs its steps in the translated code, and is
    counted in the list `stepped` when one is given.
    """
    stage = "decode"
    try:
        img = BytecodeImage.decode(data)
        stage = "Vm"
        vm = Vm(img, 0, print_sink=lambda s: None)
        stage = "step"
        for _ in range(3):
            vm.step([])  # a script error faults this VM and returns
        if stepped is not None:
            stepped.append(vm.faulted is None)
    except ImageError:
        if stage != "decode":
            return f"ImageError in {stage}"
    except Exception as exc:
        return f"{type(exc).__name__} in {stage}"
    return None


def test_mutated_images_never_crash_the_host():
    # seed 7: 3,000 copies per bundled script, 1-4 random bytes overwritten
    escapes, stepped = {}, []
    for name in SCRIPTS:
        data = bundled_image_bytes(name)
        rng = random.Random(7)
        for _ in range(3000):
            bad = bytearray(data)
            for _ in range(rng.randint(1, 4)):
                bad[rng.randrange(len(bad))] = rng.randrange(256)
            crash = host_crash(bytes(bad), stepped)
            if crash:
                key = f"{name}: {crash}"
                escapes[key] = escapes.get(key, 0) + 1
    assert escapes == {}
    # about a third load and run 3 steps of translated code; most of
    # those run them without a fault
    assert len(stepped) > 5000 and sum(stepped) > 2500


def splice(text, rng):
    """`text` with 1-4 spans of up to 8 characters each replaced by a span
    of up to 8 characters copied from elsewhere in it."""
    for _ in range(rng.randint(1, 4)):
        at, src = rng.randrange(len(text) + 1), rng.randrange(len(text) + 1)
        text = (text[:at] + text[src:src + rng.randint(0, 8)]
                + text[at + rng.randint(0, 8):])
    return text


def test_mutated_sources_never_crash_the_host():
    # seed 7: 350 spliced copies per bundled script go through compile,
    # link, Vm(...) and 3 steps; only swarmlang.errors may come out
    escapes, ran = {}, 0
    for name in SCRIPTS:
        source = behaviors.load_script(name)
        rng = random.Random(7)
        for _ in range(350):
            stage = "compile"
            try:
                img = compile_and_link(splice(source, rng))
                stage = "Vm"
                vm = Vm(img, 0, print_sink=lambda s: None)
                stage = "step"
                for _ in range(3):
                    vm.step([])  # a script error faults this VM and returns
                ran += 1
            except SwarmlangError:
                pass
            except Exception as exc:
                key = f"{name}: {type(exc).__name__} in {stage}"
                escapes[key] = escapes.get(key, 0) + 1
    assert escapes == {}
    assert ran > 500  # many mutants still compile, load and run


@settings(max_examples=500, deadline=None, derandomize=True, database=None)
@given(st.sampled_from(SCRIPTS),
       st.lists(st.tuples(st.floats(0, 1, exclude_max=True),
                          st.integers(0, 255)), min_size=1, max_size=6))
def test_any_mutated_image_loads_cleanly_or_faults_one_robot(name, edits):
    bad = bytearray(bundled_image_bytes(name))
    for where, byte in edits:
        bad[int(where * len(bad))] = byte
    assert host_crash(bytes(bad)) is None


# Python source, quotes, backslashes, line breaks and NULs, and names the
# generated code itself uses: each must stay a string
HOSTILE = ["'); import os; os._exit(3) #", '"""\nraise SystemExit(4)\n"""',
           "\\' \\\" \\n \\x00", "one\ntwo\r\nthree\x0b",
           "nul\x00byte\x00", "{__import__('os').getpid()}", "k0", "fuel",
           "vm", "s0", "G", "env", "__builtins__"]


def hostile_image():
    """An image whose string pool holds HOSTILE as global and function
    names, string constants and table keys, and their expected globals."""
    slots = range(len(HOSTILE))
    source = "".join(f"function fname{i}() {{ return \"value{i}\" }}\n"
                     f"t[\"key{i}\"] = fname{i}()\n" for i in slots)
    img = compile_and_link("t = {}\n" + source)
    swap = {}
    for i, text in enumerate(HOSTILE):
        swap.update({f"fname{i}": text, f"value{i}": text + "!",
                     f"key{i}": "#" + text})
    assert set(swap) <= set(img.strings)
    img.strings = [swap.get(s, s) for s in img.strings]
    return BytecodeImage.decode(img.encode())


def test_hostile_strings_stay_data(monkeypatch):
    sources = []
    real = image_mod.translate.__globals__["_factory"]

    def spy(source):
        sources.append(source)
        return real(source)

    monkeypatch.setitem(image_mod.translate.__globals__, "_factory", spy)
    img = hostile_image()
    vm = Vm(img, 0)
    assert sources  # the image was translated here, not taken from a cache
    vm.step([])
    vm.step([])
    assert vm.faulted is None
    table = vm.get_global("t").data
    for text in HOSTILE:
        assert type(vm.get_global(text)).__name__ == "NativeClosure"
        assert table["#" + text] == text + "!"
        assert vm.call_function(text) == text + "!"
        assert img.function_offsets()[text]
    assert len(table) == len(HOSTILE)
    for source in sources:  # constants reach the code only through K
        assert not any(text in source for text in HOSTILE[:6])
        assert "value" not in source and "key" not in source


def test_one_decode_serves_every_vm_on_an_image(monkeypatch):
    calls = []
    real = image_mod.decode_instructions

    def counting(code):
        calls.append(len(code))
        return real(code)

    for module in (image_mod, vm_mod):  # every module binding the name
        if hasattr(module, "decode_instructions"):
            monkeypatch.setattr(module, "decode_instructions", counting)
    img = BytecodeImage.decode(compile_and_link(SAMPLE).encode())
    Vm(img, 0)
    Vm(img, 1)
    assert len(calls) == 1


def test_load_verifies_and_the_first_vm_translates(monkeypatch):
    calls = []
    real = image_mod.translate

    def counting(program):
        calls.append(program)
        return real(program)

    monkeypatch.setattr(image_mod, "translate", counting)
    data = compile_and_link(SAMPLE).encode()
    img = BytecodeImage.decode(data)
    assert assemble(disassemble(img)).program
    assert calls == []
    Vm(img, 0)
    assert calls == [img.program]
    Vm(img, 1)
    assert len(calls) == 1


def region_order_holds(program):
    """Each region once, ending at the next header, after the regions its
    MKCLOSUREs create."""
    instrs, regions = program.instrs, program.regions
    heads = [i for i, (opcode, _) in enumerate(instrs) if opcode == op.FUNC]
    ends = heads + [len(instrs)]
    assert sorted(r[:2] for r in regions) == list(
        zip([0] + [h + 1 for h in heads], ends))
    seen = set()
    for start, end, nparams, nlocals in regions:
        for opcode, arg in instrs[start:end]:
            if opcode == op.MKCLOSURE:
                assert arg[0] in seen
        if start:
            assert (nparams, nlocals) == instrs[start - 1][1]
        seen.add(start)
    assert regions[-1] == (0, ends[0], 0, 1)


@pytest.mark.parametrize("name", SCRIPTS + ("hostile",))
def test_region_table_lists_creators_after_what_they_create(name):
    img = hostile_image() if name == "hostile" else \
        BytecodeImage.decode(bundled_image_bytes(name))
    assert len(img.program.regions) > 1
    region_order_holds(img.program)


def test_region_table_of_closures_nested_past_the_recursion_limit():
    # function k (FUNC at instruction 3 + 3k) creates function k + 1 and
    # returns it; the last returns nil.  No source nests this deep.
    depth = sys.getrecursionlimit() + 100
    body = []
    for k in range(1, depth):
        body += [("FUNC", 0, 1), ("MKCLOSURE", 7 + 15 * k), ("RET",)]
    code = b"".join(encode_instruction(op.BY_NAME[name], args) for name, *args
                    in [("MKCLOSURE", 7), ("POP",), ("DONE",), *body,
                        ("FUNC", 0, 1), ("RETN",)])
    img = BytecodeImage(code=code)
    region_order_holds(img.program)
    assert [r[0] for r in img.program.regions] == \
        [4 + 3 * k for k in reversed(range(depth))] + [0]
    assert img.main.__name__ == "fn@0"


# --- one test per verifier rule (docs/bytecode.md, "Verification")

# offsets: MKCLOSURE @0, CALL @5, POP @10, DONE @11, then a FUNC at @12
# whose body starts at @21
BOOT = (("MKCLOSURE", 12), ("CALL", 0), ("POP",), ("DONE",))


def verify(*instrs, strings=(), consts=(), functions=(), debug=()):
    """The Program of an image whose code is (name, *operands) tuples."""
    code = b"".join(encode_instruction(op.BY_NAME[name], args)
                    for name, *args in instrs)
    return BytecodeImage(strings=list(strings), consts=list(consts),
                         functions=list(functions), debug=list(debug),
                         code=code).program


def rejected(match, *instrs, **pools):
    with pytest.raises(ImageError, match=match):
        verify(*instrs, **pools)


def test_verifier_accepts_a_minimal_image():
    program = verify(*BOOT, ("FUNC", 0, 1), ("RETN",))
    assert program.offsets == [0, 5, 10, 11, 12, 21]
    assert program.instrs[0] == (op.MKCLOSURE, (5, 0, 1))


def test_verifier_rejects_unknown_opcode():
    with pytest.raises(ImageError, match="unknown opcode 99"):
        BytecodeImage(code=bytes([99])).program


def test_verifier_rejects_truncated_instruction():
    with pytest.raises(ImageError, match="truncated instruction"):
        BytecodeImage(code=bytes([op.PUSHI, 0, 0])).program


def test_verifier_rejects_empty_code():
    rejected("empty code")


def test_verifier_rejects_function_header_at_offset_0():
    rejected("offset 0", ("FUNC", 0, 1), ("RETN",))


def test_verifier_rejects_string_index_out_of_range():
    rejected("string index 1", ("PUSHS", 1), ("POP",), ("DONE",),
             strings=["a"])


def test_verifier_rejects_constant_index_out_of_range():
    rejected("constant index 0", ("PUSHC", 0), ("POP",), ("DONE",))


def test_verifier_rejects_table_indices_out_of_range():
    rejected("function name index 5", *BOOT, ("FUNC", 0, 1), ("RETN",),
             functions=[(5, 12)])
    rejected("debug origin index 3", *BOOT, ("FUNC", 0, 1), ("RETN",),
             debug=[(0, 1, 1, 3)])


def test_verifier_rejects_function_table_offset_off_a_header():
    rejected("function table offset 21", *BOOT, ("FUNC", 0, 1), ("RETN",),
             strings=["f"], functions=[(0, 21)])


def test_verifier_rejects_jump_target_off_a_boundary():
    rejected("target 3 is not an instruction boundary",
             ("JUMP", 3), ("DONE",))


def test_verifier_rejects_jump_into_another_function():
    rejected("jump target 0 is outside", *BOOT, ("FUNC", 0, 1), ("JUMP", 0))


def test_verifier_rejects_jump_to_a_function_header():
    rejected("jump target 12 is outside", *BOOT, ("FUNC", 0, 1),
             ("JUMP", 12))


def test_verifier_rejects_closure_target_off_a_header():
    rejected("closure target 6 is not a function header",
             ("MKCLOSURE", 6), ("POP",), ("DONE",))


def test_verifier_rejects_fall_through_into_a_function_header():
    # MKCLOSURE @0, POP @5, FUNC @6: the bootstrap runs into the header
    rejected("falls through into a function header",
             ("MKCLOSURE", 6), ("POP",), ("FUNC", 0, 1), ("RETN",))


def test_verifier_rejects_falling_off_the_end():
    rejected("falls off the end", ("PUSHNIL",))
    rejected("falls off the end", *BOOT, ("FUNC", 0, 1), ("PUSHNIL",))


def test_verifier_rejects_done_outside_the_bootstrap():
    rejected("DONE outside the bootstrap", *BOOT, ("FUNC", 0, 1), ("DONE",))


def test_verifier_rejects_local_slot_out_of_range():
    verify(("LLOAD", 0), ("POP",), ("DONE",))  # the bootstrap's one slot
    rejected("local slot 1", ("LLOAD", 1), ("POP",), ("DONE",))
    rejected("local slot 2", *BOOT, ("FUNC", 0, 2), ("PUSHNIL",),
             ("LSTORE", 2), ("RETN",))


def test_verifier_rejects_more_than_max_locals():
    verify(*BOOT, ("FUNC", 0, MAX_LOCALS), ("RETN",))
    rejected(f"more than {MAX_LOCALS}", *BOOT,
             ("FUNC", 0, MAX_LOCALS + 1), ("RETN",))


def test_compiler_refuses_more_than_max_locals():
    def script(n):
        return "".join(f"var v{i} = {i}\n" for i in range(n))
    img = BytecodeImage.decode(compile_and_link(script(MAX_LOCALS - 1))
                               .encode())  # self takes slot 0
    assert img.program
    with pytest.raises(CompileError, match=f"more than {MAX_LOCALS}"):
        compile_and_link(script(MAX_LOCALS))
    params = ", ".join(f"p{i}" for i in range(MAX_LOCALS))
    with pytest.raises(CompileError, match="locals"):
        compile_and_link(f"function f({params}) {{ }}")


def test_verifier_checks_upvalues_against_the_closure_chain():
    # the function is created in the bootstrap, whose frame has one slot
    verify(*BOOT, ("FUNC", 0, 1), ("ULOAD", 1, 0), ("RET",))
    for depth, slot in ((1, 1), (2, 0), (0, 0)):
        rejected(f"upvalue {depth} {slot}", *BOOT, ("FUNC", 0, 1),
                 ("PUSHNIL",), ("USTORE", depth, slot), ("RETN",))


def test_verifier_checks_nested_upvalues():
    # f @12 (3 slots) creates g @27, whose depth-1 frame is f's
    img = compile_and_link("function f(a, b) {\n"
                           "  return function() { return a + b } }")
    assert img.program
    f = (("FUNC", 2, 3), ("MKCLOSURE", 27), ("RET",))
    assert verify(*BOOT, *f, ("FUNC", 0, 1), ("ULOAD", 1, 2), ("RET",))
    rejected("upvalue 1 3", *BOOT, *f, ("FUNC", 0, 1), ("ULOAD", 1, 3),
             ("RET",))
    rejected("upvalue 3 0", *BOOT, *f, ("FUNC", 0, 1), ("ULOAD", 3, 0),
             ("RET",))


def test_verifier_rejects_a_function_with_two_closure_sites():
    # MKCLOSURE @0, POP @5, MKCLOSURE @6, POP @11, DONE @12, FUNC @13
    rejected("second MKCLOSURE site", ("MKCLOSURE", 13), ("POP",),
             ("MKCLOSURE", 13), ("POP",), ("DONE",), ("FUNC", 0, 1),
             ("RETN",))


def test_verifier_rejects_a_function_never_created():
    rejected("no MKCLOSURE site", ("DONE",), ("FUNC", 0, 1), ("RETN",))


def test_verifier_rejects_closure_sites_outside_the_bootstrap_tree():
    # DONE @0; FUNC @1 creates FUNC @16, which creates FUNC @1
    rejected("cycle", ("DONE",),
             ("FUNC", 0, 1), ("MKCLOSURE", 16), ("RET",),
             ("FUNC", 0, 1), ("MKCLOSURE", 1), ("RET",))
    rejected("cycle", ("DONE",), ("FUNC", 0, 1), ("MKCLOSURE", 1), ("RET",))


def test_verifier_rejects_stack_underflow():
    rejected("stack underflow", ("POP",), ("DONE",))
    rejected("stack underflow", *BOOT, ("FUNC", 0, 1), ("RET",))


def test_verifier_counts_call_operands():
    # CALL n pops the callee and n arguments, CALLM also the receiver
    verify(("PUSHNIL",), ("PUSHNIL",), ("CALL", 1), ("POP",), ("DONE",))
    rejected("stack underflow", ("PUSHNIL",), ("CALL", 1), ("POP",),
             ("DONE",))
    verify(("PUSHNIL",), ("PUSHNIL",), ("PUSHNIL",), ("CALLM", 1),
           ("POP",), ("DONE",))
    rejected("stack underflow", ("PUSHNIL",), ("PUSHNIL",), ("CALLM", 1),
             ("POP",), ("DONE",))


@pytest.mark.parametrize("keep", ["JFKEEP", "JTKEEP"])
def test_verifier_keeps_the_value_only_on_the_jump(keep):
    # PUSHNIL @0, KEEP @1, PUSHNIL @6, POP @7, DONE @8: both paths reach
    # @7 with one value, the jump keeping it and the fall-through
    # popping it before the second PUSHNIL
    verify(("PUSHNIL",), (keep, 7), ("PUSHNIL",), ("POP",), ("DONE",))
    rejected("stack depths", ("PUSHNIL",), (keep, 6), ("POP",), ("DONE",))
    rejected("stack underflow", (keep, 5), ("DONE",))


def test_verifier_rejects_two_stack_depths_at_one_instruction():
    # PUSHI @0, JUMPF @5 -> DONE @11 with 0 values, PUSHNIL @10 -> 1 value
    rejected("stack depths", ("PUSHI", 1), ("JUMPF", 11), ("PUSHNIL",),
             ("DONE",))


def test_verifier_ignores_unreachable_code():
    # the POP @1 never runs, so its underflow is harmless
    verify(("JUMP", 6), ("POP",), ("DONE",))
