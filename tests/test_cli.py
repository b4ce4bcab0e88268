"""End-to-end command-line behaviour: channels, exit codes, JSON reports."""

import json
import os
import subprocess
import sys

import jsonschema
import pytest

import realdeligne
from realdeligne import catalog, cechengine, cli
from realdeligne.coverdata import IZ, product_cover
from realdeligne.deligne import RESULT_RECORD_SCHEMA, deligne_descriptor


def run(capsys, *argv):
    try:
        code = cli.main(list(argv))
    except SystemExit as exc:  # argparse refuses the command line
        code = exc.code
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_compute_single_degree(capsys):
    code, out, err = run(
        capsys, "compute", "--space", "point_trivial", "--coeff", "iZ", "--degree", "1"
    )
    assert code == 0
    assert out.strip() == "H^1(point_trivial; (Z, -1)) = Z/2"
    assert err.startswith("# cover point_trivial")
    assert "good=True" in err


def test_compute_table(capsys):
    code, out, _ = run(
        capsys,
        "compute",
        "--space",
        "circle_antipodal",
        "--coeff",
        "iZ",
        "--max-degree",
        "3",
    )
    assert code == 0
    lines = out.strip().splitlines()
    assert len(lines) == 3
    assert lines[0].endswith("= 0")
    assert lines[1].endswith("= Z/2")
    assert lines[2].endswith("= 0")


def test_compute_nonequivariant_tag(capsys):
    code, out, _ = run(
        capsys,
        "compute",
        "--space",
        "circle_antipodal",
        "--coeff",
        "Z",
        "--degree",
        "1",
        "--nonequivariant",
    )
    assert code == 0
    assert out.startswith("plain H^1(")
    assert out.strip().endswith("= Z")


def test_deligne_mixed_output(capsys):
    code, out, _ = run(
        capsys, "deligne", "--space", "circle_antipodal", "-p", "2", "-q", "2"
    )
    assert code == 0
    assert "mixed" in out
    assert "E^{p-1}/E^{p-1}_0(M)" in out


def test_classify_flat(capsys):
    code, out, _ = run(
        capsys, "classify", "--space", "circle_conjugation", "--what", "flat"
    )
    assert code == 0
    assert "compact_extension" in out
    assert "torus_dim 1" in out
    assert "split assumed" in out


def test_classify_line_bundles_with_params(capsys):
    code, out, _ = run(
        capsys, "classify", "--space", "sphere_antipodal:2", "--what", "line-bundles"
    )
    assert code == 0
    assert out.startswith("line-bundles(")
    assert out.strip().endswith("= Z")


@pytest.mark.parametrize("space", ["circle_conjugation", "sphere_antipodal:2"])
def test_classify_with_connection(capsys, space):
    """The (2, 2) descriptor as a line, and its record in the report."""
    want = deligne_descriptor(cli._load_cover(space), 2, 2)
    code, out, _ = run(capsys, "classify", "--space", space, "--what", "with-connection")
    assert (code, out) == (0, f"{want}\n")
    code, out, _ = run(capsys, "classify", "--space", space, "--what", "with-connection", "--json")
    assert code == 0 and json.loads(out)["results"] == [want.to_record()]


def test_compute_rational_rows_are_the_integral_ranks(capsys):
    rows = {}
    for coeff in ("iZ", "iQ-"):
        code, out, _ = run(
            capsys, "compute", "--space", "circle_conjugation", "--coeff", coeff, "--max-degree", "4", "--json"
        )
        assert code == 0
        rows[coeff] = json.loads(out)["results"]
    assert [r["rank"] for r in rows["iQ-"]] == [r["rank"] for r in rows["iZ"]]
    assert any(r["rank"] for r in rows["iZ"]) and any(r["torsion"] for r in rows["iZ"])
    assert not any(r["torsion"] for r in rows["iQ-"])


@pytest.mark.parametrize(
    "coeff, message",
    [("Zmod:x", "bad modulus"), ("Zmod:", "bad modulus"), ("Zmod:1", "modulus must be >= 2"),
     ("Zmod:-3", "modulus must be >= 2"), ("Zmod:1_0", "bad modulus in 'Zmod:1_0'"),
     ("Zmod:٣", "bad modulus in 'Zmod:٣'"), ("Zmod:+3", "bad modulus in 'Zmod:+3'"),
     ("Zmod: 3", "bad modulus in 'Zmod: 3'")],
)
def test_bad_modulus_is_an_argument_error(capsys, coeff, message):
    """A modulus is read as ASCII ``-?[0-9]+`` only, as every integer on
    the command line is: Python's ``int`` would read ``1_0`` as 10 and
    ``٣`` as 3."""
    code, out, err = run(capsys, "compute", "--space", "point_trivial", "--coeff", coeff, "--degree", "0")
    assert (code, out) == (2, "")
    assert message in err and "Traceback" not in err


def test_json_report_compute(capsys):
    code, out, err = run(
        capsys,
        "compute",
        "--space",
        "point_trivial",
        "--coeff",
        "iZ",
        "--max-degree",
        "4",
        "--json",
    )
    assert code == 0
    assert err.startswith("# cover")  # diagnostics stay off stdout
    rep = json.loads(out)
    assert rep["version"]
    assert rep["invocation"][0] == "compute"
    assert rep["cover"]["indices"] == 2
    assert set(rep["timings"]) == {"build", "compute"}
    assert len(rep["results"]) == 4
    for rec in rep["results"]:
        jsonschema.validate(rec, RESULT_RECORD_SCHEMA)


def test_json_report_deligne(capsys):
    code, out, _ = run(
        capsys,
        "deligne",
        "--space",
        "circle_antipodal",
        "-p",
        "3",
        "-q",
        "2",
        "--json",
    )
    assert code == 0
    rec = json.loads(out)["results"][0]
    jsonschema.validate(rec, RESULT_RECORD_SCHEMA)
    assert rec["shape"] == "compact_extension"
    assert rec["torus_dim"] == 0


def test_cover_file_loading(tmp_path, capsys, spaces):
    path = tmp_path / "orbit.json"
    path.write_text(spaces["free_orbit"].to_json())
    code, out, _ = run(
        capsys, "compute", "--space", f"@{path}", "--coeff", "iZ", "--degree", "0"
    )
    assert code == 0
    # the free orbit collapses to a point, so degree zero carries one copy of Z
    assert out.strip() == "H^0(free_orbit; (Z, -1)) = Z"


def test_exit_unknown_space(capsys):
    code, out, err = run(
        capsys, "compute", "--space", "klein_bottle", "--coeff", "iZ", "--degree", "0"
    )
    assert code == 2
    assert out == ""
    assert "klein_bottle" in err


@pytest.mark.parametrize(
    "space, message",
    [
        ("point_trivial:7", "too many parameters for catalog space 'point_trivial': 1"),
        ("free_orbit:3", "too many parameters for catalog space 'free_orbit': 1"),
        ("circle_conjugation:x", "too many parameters for catalog space 'circle_conjugation': 1"),
        ("sphere_antipodal:1,5", "too many parameters for catalog space 'sphere_antipodal': 2"),
        ("torus:circle_antipodal,3", "no catalog space named 3"),
        ("torus:sphere_antipodal", "a torus takes two or more factors, got 1"),
        ("sphere_antipodal:²", "sphere dimension must be an integer, got '²'"),
        ("sphere_antipodal:--1", "sphere dimension must be an integer, got '--1'"),
        ("sphere_antipodal:٣", "sphere dimension must be an integer, got '٣'"),
        ("sphere_antipodal:1_0", "sphere dimension must be an integer, got '1_0'"),
        ("sphere_antipodal:", "no parameters after ':' in 'sphere_antipodal:'"),
        ("torus:", "no parameters after ':' in 'torus:'"),
    ],
)
def test_exit_catalog_parameters_the_space_does_not_take(capsys, space, message):
    """A parameter the named catalog space does not take is an input error
    (exit 2), not silently dropped; a torus factor must be a catalog name,
    a number only ASCII ``-?[0-9]+`` (a superscript or another script's
    digit reaches the catalog's own check as text), and a ``:`` must be
    followed by parameters."""
    code, out, err = run(capsys, "classify", "--what", "line-bundles", "--space", space)
    assert code == 2
    assert out == ""
    assert message in err and "Traceback" not in err


def test_exit_invalid_cover_file(tmp_path, capsys):
    """A cover file whose involution fixes its one index is valid, and
    answers the table of the doubled catalog point (exit 0); once its
    involution leaves the indices, it is refused (exit 2)."""
    bad = {
        "name": "point",
        "involution_name": "id",
        "indices": ["u"],
        "involution": {"u": "u"},
        "intersections": [{"sets": ["u"], "components": ["c"]}],
        "faces": [],
        "component_involution": {"c": "c"},
        "good": True,
        "compact": True,
    }
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(bad))
    table = ("compute", "--coeff", "iZ", "--max-degree", "5")
    code, out, _ = run(capsys, *table, "--space", f"@{path}")
    assert code == 0
    assert out == run(capsys, *table, "--space", "point_trivial")[1].replace("point_trivial", "point")
    bad["involution"] = {"u": "v"}
    path.write_text(json.dumps(bad))
    code, out, err = run(capsys, *table, "--space", f"@{path}")
    assert (code, out) == (2, "")
    assert "involution undefined or escapes the index set at 'u'" in err


@pytest.mark.parametrize(
    "field, entry, message",
    [
        ("intersections", {"sets": ["a0"], "components": ["cX"]}, "subset ['a0'] listed twice in 'intersections'"),
        ("faces", {"component": "c01", "drop": "a0", "in_component": "c0"},
         "face entry ('c01', drop 'a0') listed twice in 'faces'"),
    ],
)
def test_exit_cover_file_repeating_a_key(tmp_path, capsys, spaces, field, entry, message):
    """A cover file that lists a subset or a face twice is an input error
    (exit 2) naming the key: neither entry is silently dropped, even when
    the later one is right."""
    raw = spaces["circle_antipodal"].to_raw()
    raw[field].insert(0, entry)
    path = tmp_path / "repeated.json"
    path.write_text(json.dumps(raw))
    code, out, err = run(capsys, "compute", "--space", f"@{path}", "--coeff", "iZ", "--max-degree", "2")
    assert code == 2
    assert out == ""
    assert message in err and "Traceback" not in err


@pytest.mark.parametrize(
    "edit, message",
    [
        (lambda text: "[" * 100000, "the JSON text nests too deeply to read"),
        (lambda text: text.rstrip()[:-1] + ', "compact": false}', "key 'compact' listed twice in one object"),
        (lambda text: text.replace('"involution": {', '"involution": {"a": "a", ', 1),
         "key 'a' listed twice in one object"),
    ],
    ids=["deep-nesting", "repeated-flag", "repeated-index"],
)
def test_exit_cover_file_unreadable_text(tmp_path, capsys, spaces, edit, message):
    """A cover file nested too deeply to decode, or an object in it that
    lists a key twice, is an input error (exit 2), not a traceback.  Which
    of a repeated key's values is meant is unknown, so neither is kept: read
    with its later ``compact``, the free orbit would not be compact (exit 4)."""
    text = spaces["free_orbit"].to_json()
    assert '"compact": true' in text
    path = tmp_path / "cover.json"
    path.write_text(edit(text))
    code, out, err = run(capsys, "classify", "--space", f"@{path}", "--what", "circle-maps")
    assert code == 2
    assert out == ""
    assert f"[MalformedDescription] {message}" in err and "Traceback" not in err


@pytest.mark.parametrize(
    "field, message",
    [
        ("sets", "subset entry ['a0', 'a1', 'a0'] lists index 'a0' twice"),
        ("components", "subset entry ['a0', 'a1'] lists component 'c01' twice"),
    ],
)
def test_exit_cover_file_repeating_a_name_in_an_entry(tmp_path, capsys, spaces, field, message):
    """A subset entry that lists a member or a component twice is an input
    error (exit 2) naming the entry: it is not read as the shorter entry,
    nor reported as a component that two subsets share."""
    raw = spaces["circle_antipodal"].to_raw()
    entry = next(e for e in raw["intersections"] if len(e["sets"]) == 2)
    entry[field] = entry[field] + entry[field][:1]
    path = tmp_path / "repeated.json"
    path.write_text(json.dumps(raw))
    code, out, err = run(capsys, "compute", "--space", f"@{path}", "--coeff", "iZ", "--max-degree", "2")
    assert code == 2
    assert out == ""
    assert message in err and "Traceback" not in err
    assert "used by two subsets" not in err


def test_exit_degree_range(capsys):
    code, _, _ = run(
        capsys,
        "compute",
        "--space",
        "point_trivial",
        "--coeff",
        "iZ",
        "--degree",
        "5",
        "--max-degree",
        "3",
    )
    assert code == 3


@pytest.mark.parametrize(
    "argv, code, message",
    [
        (["--max-degree", "0"], 3, "at least 1, got 0"),
        (["--max-degree", "-1"], 3, "at least 1, got -1"),
        (["--max-degree", str(sys.maxsize + 1)], 3, f"at most {sys.maxsize}, got {sys.maxsize + 1}"),
    ],
)
def test_compute_degree_exit_codes(capsys, argv, code, message):
    got, out, err = run(
        capsys, "compute", "--space", "point_trivial", "--coeff", "iZ", *argv
    )
    assert got == code
    assert out == ""
    assert message in err and "Traceback" not in err


@pytest.mark.parametrize(
    "argv, code, message",
    [
        (["deligne", "--space", "circle_antipodal", "-p", "2", "-q", "-1"], 3, "negative cohomological degree"),
        (["deligne", "--space", "circle_antipodal", "-p", "-1", "-q", "1"], 2, "p must be nonnegative"),
        (["compute", "--space", "free_orbit", "--coeff", "iZ", "--degree", "-1"], 3, "negative cohomological degree"),
        (["compute", "--space", "free_orbit", "--coeff", "iZ", "--degree", str(10**20)], 0, ""),
        (["deligne", "--space", "point_trivial", "-p", "2", "-q", "2", "--max-degree", "2"], 2,
         "unrecognized arguments: --max-degree 2"),
        (["compute", "--space", "free_orbit", "--coeff", "iZ", "--degree", "1_0"], 2,
         "argument --degree: not an integer: '1_0'"),
        (["compute", "--space", "free_orbit", "--coeff", "iZ", "--degree", "٣"], 2,
         "argument --degree: not an integer: '٣'"),
        (["compute", "--space", "free_orbit", "--coeff", "iZ", "--degree", "+1"], 2,
         "argument --degree: not an integer: '+1'"),
        (["compute", "--space", "free_orbit", "--coeff", "iZ", "--max-degree", "1_0"], 2,
         "argument --max-degree: not an integer: '1_0'"),
        (["compute", "--space", "free_orbit", "--coeff", "iZ", "--max-degree", " 2"], 2,
         "argument --max-degree: not an integer: ' 2'"),
        (["deligne", "--space", "circle_antipodal", "-p", "1_0", "-q", "1"], 2, "argument -p: not an integer: '1_0'"),
        (["deligne", "--space", "circle_antipodal", "-p", "1", "-q", "²"], 2, "argument -q: not an integer: '²'"),
    ],
)
def test_degree_sign_exit_codes(capsys, argv, code, message):
    """A negative q is a degree-range failure, as a negative --degree is; a
    negative p is an input failure.  A degree far above a finite complex's
    top reads zero at once.  ``deligne`` takes no degree window: it reads
    degrees 0 .. q, and ``--max-degree`` is an unknown option there.  An
    integer is read as ASCII ``-?[0-9]+`` only, so ``1_0``, ``+1``, a
    space and other scripts' digits are input failures."""
    got, out, err = run(capsys, *argv)
    assert got == code
    assert message in err
    if code == 0:
        assert out.strip().endswith("= 0")


def test_exit_cover_file_without_indices(tmp_path, capsys, spaces):
    raw = spaces["free_orbit"].to_raw()
    del raw["indices"]
    path = tmp_path / "no-indices.json"
    path.write_text(json.dumps(raw))
    code, out, err = run(
        capsys, "compute", "--space", f"@{path}", "--coeff", "iZ", "--max-degree", "2"
    )
    assert code == 2
    assert out == ""
    assert "'indices' is missing" in err


def test_exit_non_integer_catalog_parameter(capsys):
    code, out, err = run(
        capsys,
        "compute",
        "--space",
        "sphere_antipodal:x",
        "--coeff",
        "iZ",
        "--max-degree",
        "2",
    )
    assert code == 2
    assert out == ""
    assert "integer" in err and "'x'" in err


def test_three_factor_torus_answers(capsys):
    """A three-factor torus answers from the tensor model of its factors,
    without building its nerve: the action is free and the quotient a
    4-manifold, so H^5 = H^6 = 0.  Products associate: the right-nested
    product gives the same strings as the left-nested one the CLI builds."""
    factors = ("sphere_antipodal", "circle_antipodal", "circle_antipodal")
    code, out, err = run(
        capsys, "compute", "--space", "torus:" + ",".join(factors), "--coeff", "iZ", "--max-degree", "7"
    )
    assert code == 0 and "Traceback" not in err
    groups = [line.split(" = ")[1] for line in out.strip().splitlines()]
    assert len(groups) == 7 and groups[5] == groups[6] == "0"
    a, b, c = map(catalog.build, factors)
    right = product_cover(a, product_cover(b, c))
    assert [str(cechengine.equivariant_cohomology(right, IZ, k, 7)) for k in range(7)] == groups


def test_exit_internal_invariant_failure(tmp_path, capsys, monkeypatch):
    """A coboundary with d∘d != 0 is the package's fault, not the input's:
    exit 5 with a message, not exit 2 and not a traceback.  The catalog
    sphere answers from its two-point factors, so the cover is its file,
    whose model is read off its nerve."""
    path = tmp_path / "sphere.json"
    path.write_text(catalog.build("sphere_antipodal", 2).to_json())
    inner = cechengine._nerve_parts

    def broken(cover):
        diffs, actions = inner(cover)
        bad = diffs[1].copy()
        # a new entry in row 0 against a nonzero row of d_0 spoils d_1 @ d_0
        col = next(j for j, row in enumerate(diffs[0].rows) if row)
        bad.set(0, col, bad.get(0, col) + 1)
        return [diffs[0], bad, *diffs[2:]], actions

    monkeypatch.setattr(cechengine, "_nerve_parts", broken)
    code, out, err = run(
        capsys, "compute", "--space", f"@{path}", "--coeff", "iZ", "--max-degree", "2"
    )
    assert code == cli.EXIT_INTERNAL == 5
    assert out == ""
    assert "internal invariant failure" in err and "d∘d != 0" in err
    assert "Traceback" not in err


def test_exit_broken_involution_is_internal(capsys, monkeypatch):
    """An alternating action whose square is not the identity is caught by
    the engine's own T^2 = id check: exit 5, naming the check."""
    inner = cechengine._nerve_parts

    def rotated(cover):
        diffs, actions = inner(cover)
        return diffs, [(perm[1:] + perm[:1], eps) for perm, eps in actions]

    monkeypatch.setattr(cechengine, "_nerve_parts", rotated)
    code, out, err = run(
        capsys, "compute", "--space", "circle_antipodal", "--coeff", "iZ", "--max-degree", "2"
    )
    assert code == cli.EXIT_INTERNAL == 5
    assert out == ""
    assert "internal invariant failure" in err and "T^2 != id" in err
    assert "Traceback" not in err


def test_exit_out_of_memory(capsys, monkeypatch):
    """Work that runs out of memory ends with exit 6 and a one-line
    message, not a traceback with exit 1 (verification failure).  The
    builder is made to raise; no memory is exhausted for real."""

    def exhausted(model, sign):
        raise MemoryError

    monkeypatch.setattr(cechengine, "_descriptor_of", exhausted)
    code, out, err = run(
        capsys, "compute", "--space", "circle_conjugation", "--coeff", "iZ", "--degree", "300000"
    )
    assert code == cli.EXIT_OUT_OF_MEMORY == 6
    assert out == ""
    assert [line for line in err.splitlines() if not line.startswith("# cover")] == [
        "out of memory: this question needs more memory than the process can get"
    ]


@pytest.mark.parametrize("coeff, tail", [("iZ", 1), ("Z", 0)])
def test_four_conjugation_circles_localize(capsys, coeff, tail):
    """Four conjugation circles answer through the CLI from their reduced
    models.  Above the dimension, equivariant cohomology is that of the
    2^4 = 16 fixed points (localization; Quillen, Ann. Math. 1971): each
    gives H^k(C2; Z_s), which is Z/2 for k of the parity ``tail`` (odd for
    sign -1, even for sign +1) and 0 otherwise."""
    code, out, err = run(
        capsys, "compute", "--space", "torus:" + ",".join(["circle_conjugation"] * 4),
        "--coeff", coeff, "--max-degree", "10",
    )
    assert code == 0 and "Traceback" not in err
    groups = [line.split(" = ")[1] for line in out.strip().splitlines()]
    assert len(groups) == 10
    for k in range(5, 10):
        assert groups[k] == (" + ".join(["Z/2"] * 16) if k % 2 == tail else "0"), k


@pytest.mark.parametrize(
    "coeff, degree, group",
    [("iZ", "300000", "0"), ("Zmod:2", "100001", "Z/2 + Z/2"),
     ("Z", str(10**20), "Z/2 + Z/2"), ("iZ", str(10**20 + 1), "Z/2 + Z/2")],
)
def test_far_degree_answers_from_the_window(capsys, coeff, degree, group):
    """``--degree`` far above the dimension answers from the 2-periodic
    window, as the conjugation circle's two fixed points give (one
    H^k(C2; Z_s) each, or Z/2 each mod 2); no option asks for it."""
    code, out, err = run(
        capsys, "compute", "--space", "circle_conjugation", "--coeff", coeff, "--degree", degree
    )
    assert code == 0 and "Traceback" not in err
    assert out.strip().startswith(f"H^{degree}(") and out.strip().endswith(f") = {group}")


def test_verify_reduction_suite_passes(capsys):
    code, out, _ = run(capsys, "verify", "--suite", "reduction")
    assert code == 0
    assert out.strip() == "suite reduction: pass"


def run_probe(probe):
    """Run ``probe`` in a fresh interpreter on this checkout; its stdout."""
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    proc = subprocess.run(
        [sys.executable, "-c", probe], capture_output=True, text=True, env=env, check=True
    )
    return proc.stdout


LAZY_MODULES = ("realdeligne.coverfiles", "realdeligne.flatclasses", "realdeligne.nerves")

# the names defined elsewhere that resolve at each old path, with the module
# that defines each: the flat classes, the coordinate questions and the
# ordered-tuple route (flatclasses), and the dense interchange, the solves
# and the general fixed route (verify)
MOVED = {
    "realdeligne.cechengine": dict.fromkeys(
        ["TupleBasis", "tuple_basis", "cech_differential", "basis_involution", "involution_matrix",
         "_full_complex", "build_full_complex", "_orbit_complex", "_orbit_keys", "build_equivariant_complex",
         "_carried", "_cover_of"], "realdeligne.flatclasses"),
    "realdeligne.coverdata": dict.fromkeys(["AngleLayout", "FlatCocycle"], "realdeligne.flatclasses"),
    "realdeligne.exactalg": {
        **dict.fromkeys(["class_coordinates", "class_representative", "coboundary_preimage"],
                        "realdeligne.flatclasses"),
        **dict.fromkeys(["smith_normal_form", "kernel_basis", "integer_rank", "solve_int", "solve_rational",
                         "_fixed_lattice", "fixed_subcomplex"], "realdeligne.verify"),
    },
    "realdeligne.deligne": dict.fromkeys(
        ["FlatClassCoordinates", "FlatCocycleClass", "cocycles_equivalent", "flat_cocycle_class"],
        "realdeligne.flatclasses"),
}


@pytest.mark.parametrize(
    "module",
    ["sympy", "numpy", "dataclasses", "inspect", "ast", "dis", "tokenize", "linecache", "copy",
     "fractions", "decimal", "numbers", "json", "realdeligne.verify", *LAZY_MODULES],
)
def test_cli_import_leaves_module_unloaded(module):
    """``import realdeligne.cli`` does not load ``module``.  What a bare
    interpreter has loaded before it does not count: ``site`` can preload
    modules (``typing``, for one)."""
    probe = f"""if True:
        import sys
        bare = set(sys.modules)
        import realdeligne.cli
        print({module!r} in set(sys.modules) - bare)
    """
    assert run_probe(probe).strip() == "False"


@pytest.mark.parametrize(
    "use, loaded",
    [
        ("compute --json", ["json"]),
        ("compute @file", ["json", "realdeligne.coverfiles"]),
        ("flat class", ["fractions", "realdeligne.flatclasses"]),
    ],
)
def test_each_use_loads_only_the_lazy_module_it_needs(tmp_path, capsys, use, loaded):
    """In a fresh interpreter, a JSON report, a table of an ``@file`` cover
    and a flat class on ``circle_conjugation`` each answer as they do here,
    and each loads, of ``json``, ``fractions``, ``verify`` and the modules
    loaded on first use, only what it reads.  None of them reads a name
    that moved out of the engine at its old path, so none is kept in
    ``cechengine``, ``exactalg`` or the package."""
    cover_file = tmp_path / "sphere.json"
    cover_file.write_text(catalog.build("sphere_antipodal", 2).to_json())
    if use == "flat class":
        from realdeligne.coverdata import FlatCocycle
        from realdeligne.deligne import cocycles_equivalent, flat_cocycle_class

        cover = catalog.build("circle_conjugation")
        zero = FlatCocycle.zero(cover)
        want = repr((flat_cocycle_class(zero), cocycles_equivalent(zero, zero)))
        answer = """
        from realdeligne import catalog
        from realdeligne.coverdata import FlatCocycle
        from realdeligne.deligne import cocycles_equivalent, flat_cocycle_class

        zero = FlatCocycle.zero(catalog.build("circle_conjugation"))
        print(repr((flat_cocycle_class(zero), cocycles_equivalent(zero, zero))))"""
    else:
        argv = ["compute", "--space", "circle_antipodal", "--coeff", "iZ", "--max-degree", "3", "--json"]
        if use == "compute @file":
            argv = ["compute", "--space", f"@{cover_file}", "--coeff", "iZ", "--max-degree", "3"]
        code, want, _ = run(capsys, *argv)
        assert code == 0
        answer = f"""
        from realdeligne import cli

        assert cli.main({argv!r}) == 0"""
    probe = f"""if True:
        import sys

        bare = set(sys.modules)
        {answer.strip()}
        print([m for m in {["fractions", "json", "realdeligne.verify", *LAZY_MODULES]!r}
               if m in set(sys.modules) - bare])
        engine = [sys.modules[m] for m in ("realdeligne", "realdeligne.cechengine", "realdeligne.exactalg")]
        print([n for n in {sorted({n for names in MOVED.values() for n in names})!r}
               if any(n in vars(m) for m in engine)])
    """
    *lines, modules, kept = run_probe(probe).splitlines()
    assert kept == "[]"
    if use != "compute --json":  # the report's timings differ from run to run
        assert "\n".join(lines).strip() == want.strip()
    else:
        report = json.loads("\n".join(lines))
        assert report["results"] == json.loads(want)["results"]
    assert modules == repr(loaded)


def test_public_names_resolve_to_the_objects_their_modules_define():
    """In a fresh interpreter, every name of ``realdeligne.__all__`` (38),
    read as an attribute, by ``from realdeligne import`` and by ``import
    *``, is the object of the module that defines it, and so is each name
    that moved to ``flatclasses`` or ``verify`` (``MOVED``) at its old
    path.  Reading an unknown name loads nothing, and a moved name is kept
    where it was read, so its next read is a plain lookup."""
    probe = f"MOVED = {MOVED!r}\n" + """if True:
        import importlib
        import sys

        import realdeligne
        from realdeligne import cechengine, coverdata, deligne, exactalg

        for module in (realdeligne, cechengine, coverdata, deligne, exactalg):
            assert not hasattr(module, "_angle_layout") and not hasattr(module, "no_such_name")
        assert "realdeligne.flatclasses" not in sys.modules and "realdeligne.verify" not in sys.modules
        homes = {name: home for names in MOVED.values() for name, home in names.items()}
        faults = []
        for path, names in [("realdeligne", realdeligne.__all__), *MOVED.items(),
                            ("realdeligne.coverdata", ["validate_cover"])]:
            module = importlib.import_module(path)
            for name in names:
                got = getattr(module, name)
                spelled = {}
                exec(f"from {path} import {name} as x", spelled)
                if name in homes:  # the object its new home defines
                    home = homes[name]
                    defined = got.__module__ == home
                else:  # a value (IZ, __version__) is checked where it is read
                    home = got.__module__ if callable(got) else path
                    defined = True
                if not (defined and got is getattr(sys.modules[home], name) is spelled["x"] and name in vars(module)):
                    faults.append((path, name))
        star = {}
        exec("from realdeligne import *", star)
        faults += [name for name in realdeligne.__all__ if star[name] is not getattr(realdeligne, name)]
        print(len(realdeligne.__all__), faults)
    """
    assert run_probe(probe).strip() == "38 []"


def test_cli_runs_and_flat_class_leave_numpy_unloaded():
    """numpy is importable here, yet a CLI table, a Deligne descriptor, a
    classifier and a flat class never load it: the package has no runtime
    dependency, and no module imports numpy on the side."""
    probe = """if True:
        import sys
        from fractions import Fraction
        from realdeligne import catalog, cli
        from realdeligne.cechengine import build_equivariant_complex, cech_differential, tuple_basis
        from realdeligne.coverdata import IZ, FlatCocycle
        from realdeligne.deligne import flat_cocycle_class

        for argv in (
            ["compute", "--space", "circle_antipodal", "--coeff", "iZ", "--max-degree", "4"],
            ["deligne", "--space", "circle_antipodal", "-p", "2", "-q", "2"],
            ["classify", "--space", "circle_conjugation", "--what", "flat"],
        ):
            assert cli.main(argv) == 0, argv
        cover = catalog.build("circle_conjugation")
        _, bases = build_equivariant_complex(cover, IZ, 3)
        eta = bases[0].matvec([Fraction(k + 1, 3) for k in range(bases[0].ncols)])
        vec = cech_differential(cover, 0).matvec(eta)
        basis = tuple_basis(cover, 1)
        angles = {(i, j, c): vec[pos] for pos, ((i, j), c) in enumerate(basis.elements)}
        assert any(angles.values())
        assert flat_cocycle_class(FlatCocycle(cover, angles)).trivial
        print("numpy" in sys.modules)
    """
    assert run_probe(probe).splitlines()[-1] == "False"


def test_cli_and_dense_interchange_run_without_numpy():
    """With numpy unimportable, the CLI commands answer (``verify --suite
    snf`` checks the public Smith forms with sparse products) and every
    dense-interchange function returns exact lists."""
    probe = """if True:
        import sys

        sys.modules["numpy"] = None
        from fractions import Fraction
        from realdeligne import cli
        from realdeligne.exactalg import (
            ElementCoordinates,
            IntegerCochainComplex,
            SparseIntMatrix,
            class_representative,
            kernel_basis,
            smith_normal_form,
            solve_int,
            solve_rational,
        )

        for argv in (
            ["compute", "--space", "circle_antipodal", "--coeff", "iZ", "--max-degree", "4"],
            ["deligne", "--space", "circle_antipodal", "-p", "2", "-q", "2"],
            ["classify", "--space", "circle_conjugation", "--what", "flat"],
            ["verify", "--suite", "snf"],
        ):
            assert cli.main(argv) == 0, argv
        m = SparseIntMatrix.from_dense([[0, 2], [-1, 0]])
        assert m.to_dense() == [[0, 2], [-1, 0]]
        assert SparseIntMatrix(2, 0).to_dense() == [[], []]
        assert SparseIntMatrix(0, 3).to_dense() == []
        assert smith_normal_form([[2, 4, 4], [-6, 6, 12], [10, -4, -16]]) == (
            [[2, 0, 0], [0, 6, 0], [0, 0, 12]],
            [[1, 0, 0], [2, -1, -1], [3, -4, -3]],
            [[1, -2, 2], [0, 1, -2], [0, 0, 1]],
        )
        assert kernel_basis([[1, 2, 3], [2, 4, 6]]) == [[-2, -3], [1, 0], [0, 1]]
        assert solve_int([[2, 0], [0, 3]], [4, 9]) == [2, 3]
        assert solve_int([[2]], [1]) is None
        assert solve_rational([[2, 0], [0, 3]], [1, 1]) == [Fraction(1, 2), Fraction(1, 3)]
        times_two = IntegerCochainComplex({0: 1, 1: 1}, {0: [[2]]})
        assert class_representative(times_two, 1, ElementCoordinates((), (1,))) == [1]
        print("ok")
    """
    assert run_probe(probe).splitlines()[-1] == "ok"


def test_cli_runs_leave_verify_unloaded():
    """Only the verify command imports the cross-check suites: a table, a
    Deligne descriptor and a classifier run without them."""
    probe = """if True:
        import sys
        from realdeligne import cli

        for argv in (
            ["compute", "--space", "circle_antipodal", "--coeff", "iZ", "--max-degree", "4"],
            ["deligne", "--space", "circle_antipodal", "-p", "2", "-q", "2"],
            ["classify", "--space", "circle_conjugation", "--what", "flat"],
        ):
            assert cli.main(argv) == 0, argv
        print("realdeligne.verify" in sys.modules)
    """
    assert run_probe(probe).splitlines()[-1] == "False"


def test_exit_not_compact(tmp_path, capsys, spaces):
    raw = spaces["free_orbit"].to_raw()
    raw["name"] = "open_orbit"
    raw["compact"] = False
    path = tmp_path / "open.json"
    path.write_text(json.dumps(raw))
    code, _, err = run(
        capsys, "classify", "--space", f"@{path}", "--what", "circle-maps"
    )
    assert code == 4
    assert "compact" in err


def test_exit_cover_flags_must_be_booleans(tmp_path, capsys, spaces):
    """A string "false" or a 0 is not a JSON boolean; read with bool(), the
    first would count as compact and the second as not good."""
    raw = spaces["circle_antipodal"].to_raw()
    raw["compact"], raw["good"] = "false", 0
    path = tmp_path / "flags.json"
    path.write_text(json.dumps(raw))
    code, out, err = run(
        capsys, "classify", "--space", f"@{path}", "--what", "circle-maps"
    )
    assert code == 2
    assert out == ""
    assert "field 'compact' must be true or false" in err
    assert "field 'good' must be true or false" in err


def test_compute_requires_a_degree_flag(capsys):
    with pytest.raises(SystemExit) as ei:
        cli.main(["compute", "--space", "point_trivial", "--coeff", "iZ"])
    assert ei.value.code == 2


def test_bad_coefficient_spelling(capsys):
    with pytest.raises(SystemExit) as ei:
        cli.main(
            ["compute", "--space", "point_trivial", "--coeff", "R", "--degree", "0"]
        )
    assert ei.value.code == 2


def test_verify_suite_passes(capsys):
    code, out, _ = run(capsys, "verify", "--suite", "snf")
    assert code == 0
    assert out.strip() == "suite snf: pass"


def test_verify_fixed_suite_passes(capsys):
    code, out, _ = run(capsys, "verify", "--suite", "fixed")
    assert code == 0
    assert out.strip() == "suite fixed: pass"


def test_verify_borel_suite_passes(capsys):
    code, out, _ = run(capsys, "verify", "--suite", "borel")
    assert code == 0
    assert out.strip() == "suite borel: pass"


def test_verify_unknown_suite_names_the_suites(capsys):
    from realdeligne.verify import SUITES

    code, out, err = run(capsys, "verify", "--suite", "nonsense")
    assert code == 2
    assert out == ""
    assert "nonsense" in err and "Traceback" not in err
    assert all(name in err for name in (*SUITES, "all"))


@pytest.mark.parametrize("as_json", [False, True])
def test_exit_verify_failure(capsys, monkeypatch, as_json):
    """A suite with failures exits 1 and says how many on stderr; stdout has
    the failure records, one JSON line each, or the ``--json`` report with
    its keys in their documented order."""
    from realdeligne import verify

    failures = [
        {"suite": "snf", "space": "point_trivial", "check": "H^0", "detail": "Z vs 0"},
        {"suite": "snf", "space": "free_orbit", "check": "H^1", "detail": "0 vs Z/2"},
    ]
    monkeypatch.setattr(verify, "run_suite", lambda name: list(failures))
    argv = ["verify", "--suite", "snf", *(["--json"] if as_json else [])]
    code, out, err = run(capsys, *argv)
    assert code == 1
    assert err == "suite snf: 2 failure(s)\n"
    if as_json:
        rep = json.loads(out)
        assert list(rep) == ["invocation", "version", "cover", "results", "timings"]
        assert rep["invocation"] == argv and rep["version"] == realdeligne.__version__
        assert rep["cover"] is None and rep["results"] == failures
        assert list(rep["timings"]) == ["verify"]
    else:
        assert [json.loads(line) for line in out.splitlines()] == failures


def test_verify_json_report(capsys):
    code, out, _ = run(capsys, "verify", "--suite", "refinement", "--json")
    assert code == 0
    rep = json.loads(out)
    assert rep["results"] == []
    assert "verify" in rep["timings"]
