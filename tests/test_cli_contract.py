"""Property test of the command line's exit-code contract.

Each example changes one field of a small, valid input: a config of one
subcommand, one line of a network file, one field of a ``.sketch`` header or
one field of a repository log record.  Whatever the change, ``main`` returns
0, 2 or 3 and raises nothing, and a refusal is one line of stderr that starts
``config error: `` (exit 2) or ``validation error: `` (exit 3).

The replacement values are small, so every example runs in milliseconds and
allocates little; a resource limit (a dimension of a billion) is not an input
error and is not probed here.
"""

from __future__ import annotations

import base64
import contextlib
import copy
import io
import json
import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from modsketch.cli import main
from modsketch.network import load_network

PREFIX = {2: "config error: ", 3: "validation error: "}
# derandomized, and capped so the module stays within seconds of Tier-1 time
CONTRACT = settings(derandomize=True, deadline=None, max_examples=200, database=None)

NET_D = 90  # auto_params(90, n_cap).d for the network's n_cap, so network and registry align
LD_PARAMS = {"b": 36, "q": 0.5, "d": 288, "n_cap": 12}
CONFIG_VALUES = (
    None, True, False, 0, 1, -1, 2, 3, 0.5, -0.5, 1.5, 1e300, float("nan"), float("inf"),
    "", "x", "m0", "a,b\nc", [], [1], [0.5, "x"], ["m0"], {}, {"position": 1}, [{}],
)
TEXT_VALUES = ("", "x", "0", "1", "-1", "2", "1.5", "nan", "inf", "-inf", "1e400", "-1:0.5", "0:-1", ":", "=", "0:x")
DELETE = object()


def _cli(argv: list[str]) -> tuple[int, str]:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = main(argv)
    return rc, err.getvalue()


def _check(argv: list[str]) -> None:
    rc, err = _cli(argv)
    assert rc in (0, 2, 3), (argv, rc, err)
    if rc:
        assert err.startswith(PREFIX[rc]) and err.count("\n") == 1 and err.endswith("\n"), (argv, err)


@pytest.fixture(scope="module")
def files(tmp_path_factory):
    """A valid network, sketch, sample directory and two-record log; ``sk.json``
    sketches the network."""
    root = tmp_path_factory.mktemp("contract")

    def write(name, payload):
        (root / name).write_text(json.dumps(payload))
        return str(root / name)

    f = {"root": root, "net": str(root / "net.txt"), "sketch": str(root / "net.sketch"), "log": str(root / "s.log")}
    gen = write("gen.json", {"seed": 1, "dimension": NET_D,
                             "profile": {"n_modules": 2, "depth": 3, "fan_in": 2, "attr_sparsity": 2}})
    assert _cli(["gen-network", "--config", gen, "--out", f["net"]])[0] == 0
    f["params"] = {"d_request": NET_D, "n_cap": load_network(f["net"]).n_cap}
    sk = write("sk.json", {"seed": 1, "allow_high_noise": True})
    assert _cli(["sketch", "--config", sk, "--network", f["net"], "--out", f["sketch"]])[0] == 0
    (root / "samples").mkdir()
    ld_sk = write("ld_sk.json", {"seed": 1, "allow_high_noise": True, "params": {"d_request": LD_PARAMS["d"], "n_cap": 6}})
    for name in ("a", "b"):
        net = root / f"{name}.net"
        gen_ld = write("gen_ld.json", {"seed": ord(name), "dimension": LD_PARAMS["d"],
                                       "profile": {"n_modules": 1, "depth": 2, "fan_in": 1}})
        assert _cli(["gen-network", "--config", gen_ld, "--out", str(net)])[0] == 0
        assert _cli(["sketch", "--config", ld_sk, "--network", str(net),
                     "--out", str(root / "samples" / f"{name}.sketch")])[0] == 0
    for eid in ("first", "second"):
        assert _cli(["repo", "insert", "--store", f["log"], "--sketch", f["sketch"], "--id", eid, "--tag", "k=v"])[0] == 0
    return f


def _configs(f) -> list[tuple[str, list[str], dict]]:
    """(command, argv without --config, valid config) for every config command."""
    out, out_dir = str(f["root"] / "out"), str(f["root"] / "out_dir")
    base = {"seed": 1, "allow_high_noise": True, "params": f["params"]}
    path = [{"position": 1, "module": "m0"}, {"position": 1, "module": "m1"}]
    return [
        ("calibrate", ["--out", out_dir], {"run_id": "c", "seed": 1, "n_cap": 8, "dims": [64, 128], "trials": 30,
                                      "pairs": 1, "quantile": 0.9, "transparent": True}),
        ("gen-network", ["--out", out], {"seed": 2, "dimension": 64, "profile": {
            "n_modules": 2, "depth": 3, "fan_in": 2, "weight_scheme": "random", "attr_sparsity": 2, "attr_span": 4}}),
        ("sketch", ["--network", f["net"], "--out", out], {**base, "mode": "block-random", "erase_to": 30,
                                                          "csv": False, "signature": False}),
        ("recover", ["--sketch", f["sketch"], "--out", out], {**base, "query": {"kind": "frequency", "module": "m0",
                                                                               "h": 2, "w": 0.5}}),
        ("recover", ["--sketch", f["sketch"], "--out", out], {**base, "query": {"kind": "attributes_by_path",
                                                                               "path": path, "w": 0.25}}),
        ("run", ["--out", out], {"experiment": "attr-error-vs-d", "run_id": "r", "seed": 1, "dims": [64],
                                 "seeds": 2, "n_cap": 8, "attributes": [0.6, 0.8]}),
        ("run", ["--out", out], {"experiment": "similarity-pairs", "d": 64, "seeds": 2, "n_cap": 8}),
        ("learn-dict", ["--out", out_dir], {"learn_mode": "plant", "run_id": "p", "params": LD_PARAMS,
                                        "n_matrices": 1, "n_samples": 3, "dominant": 0.9, "eps": 0.1}),
        ("learn-dict", ["--out", out_dir], {"learn_mode": "files", "params": LD_PARAMS,
                                        "samples_dir": str(f["root"] / "samples")}),
        ("learn-dict", ["--out", out_dir], {"learn_mode": "unroll", "params": LD_PARAMS, "eps": 0.05, "teacher": {
            "depth": 2, "w": 0.5, "n_sketches": 2, "attrs_a": [0.6, 0.8], "attrs_b": [1.0]}}),
    ]


def _paths(node, prefix=()):
    """Every key path into a JSON value, containers included."""
    items = node.items() if isinstance(node, dict) else enumerate(node) if isinstance(node, list) else ()
    for key, child in items:
        yield prefix + (key,)
        yield from _paths(child, prefix + (key,))


def _replace(node, path, value):
    node = copy.deepcopy(node)
    parent = node
    for key in path[:-1]:
        parent = parent[key]
    if value is DELETE:
        del parent[path[-1]]
    else:
        parent[path[-1]] = value
    return node


def _mutation(draw, node, values):
    path = draw(st.sampled_from(list(_paths(node))))
    return _replace(node, path, draw(st.sampled_from((DELETE,) + values)))


def test_configs_valid_as_given(files):
    for command, argv, cfg in _configs(files):
        (files["root"] / "cfg.json").write_text(json.dumps(cfg))
        rc, err = _cli([command, "--config", str(files["root"] / "cfg.json")] + argv)
        assert rc == 0, (command, cfg, err)


@settings(CONTRACT)
@given(data=st.data())
def test_one_changed_config_field(files, data):
    command, argv, cfg = data.draw(st.sampled_from(_configs(files)))
    cfg = _mutation(data.draw, cfg, CONFIG_VALUES)
    (files["root"] / "cfg.json").write_text(json.dumps(cfg))
    _check([command, "--config", str(files["root"] / "cfg.json")] + argv)


@settings(CONTRACT)
@given(data=st.data())
def test_one_changed_network_line(files, data):
    with open(files["net"], encoding="utf-8") as fh:
        lines = fh.read().splitlines()
    i = data.draw(st.integers(0, len(lines) - 1))
    tokens = lines[i].split(" ")
    change = data.draw(st.sampled_from(("delete", "duplicate", "token")))
    if change == "token":
        tokens[data.draw(st.integers(0, len(tokens) - 1))] = data.draw(st.sampled_from(TEXT_VALUES))
    lines[i: i + 1] = {"delete": [], "duplicate": [lines[i]] * 2, "token": [" ".join(tokens)]}[change]
    net = files["root"] / "changed.net"
    net.write_text("\n".join(lines) + "\n")
    _check(["sketch", "--config", str(files["root"] / "sk.json"), "--network", str(net),
            "--out", str(files["root"] / "out.sketch")])


@settings(CONTRACT)
@given(data=st.data())
def test_one_changed_sketch_header_field(files, data):
    with open(files["sketch"], "rb") as fh:
        header, payload = fh.read().split(b"\n", 1)
    tokens = header.decode("ascii").split(" ")
    i = data.draw(st.integers(0, len(tokens) - 1))
    key, eq, _ = tokens[i].partition("=")
    value = data.draw(st.sampled_from(TEXT_VALUES))
    tokens[i] = f"{key}={value}" if eq and data.draw(st.booleans()) else value
    sk = files["root"] / "changed.sketch"
    sk.write_bytes(" ".join(tokens).encode("ascii") + b"\n" + payload[: data.draw(st.sampled_from((None, -8)))])
    rec = files["root"] / "rec.json"
    rec.write_text(json.dumps({"seed": 1, "allow_high_noise": True, "params": files["params"],
                               "query": {"kind": "frequency", "module": "m0"}}))
    _check(["recover", "--config", str(rec), "--sketch", str(sk), "--out", str(files["root"] / "out.csv")])
    _check(["similarity", "--sketch-a", str(sk), "--sketch-b", files["sketch"]])
    (files["root"] / "fresh.log").unlink(missing_ok=True)
    _check(["repo", "insert", "--store", str(files["root"] / "fresh.log"), "--sketch", str(sk)])


@settings(CONTRACT)
@given(data=st.data())
def test_one_changed_log_record(files, data):
    with open(files["log"], encoding="utf-8") as fh:
        records = [json.loads(line) for line in fh]
    lines = [json.dumps(r, sort_keys=True) for r in records]
    i = data.draw(st.integers(0, len(records) - 1))
    if data.draw(st.booleans()):
        values = CONFIG_VALUES + (base64.b64encode(bytes(8)).decode("ascii"), records[i]["values"][:-4], "!!")
        lines[i] = json.dumps(_mutation(data.draw, records[i], values), sort_keys=True)
    else:  # a record cut short, its newline kept
        lines[i] = lines[i][: data.draw(st.integers(0, len(lines[i]) - 1))]
    log = files["root"] / "changed.log"
    for argv in (["query", "--sketch", files["sketch"], "--k", "1"], ["cluster", "--k", "1"],
                 ["insert", "--sketch", files["sketch"]]):
        log.write_text("".join(line + "\n" for line in lines))
        _check(["repo", argv[0], "--store", str(log)] + argv[1:])


@pytest.mark.parametrize("eid", ["a\tb", "a\nb", "a\rb", "\n", "a\x0bb", "a\u2028b", "tab\t"])
def test_insert_id_with_a_tab_or_line_break_is_refused(files, eid):
    # repo query prints one id<TAB>score line per hit, which such an id would break
    log = files["root"] / "ids.log"
    log.write_bytes((files["root"] / "s.log").read_bytes())
    before = log.read_bytes()
    rc, err = _cli(["repo", "insert", "--store", str(log), "--sketch", files["sketch"], "--id", eid])
    assert rc == 2 and err == f"config error: --id {eid!r} holds a tab or a line break\n"
    assert log.read_bytes() == before


def test_insert_id_with_spaces_keeps_one_line_per_hit(files):
    log = files["root"] / "spaces.log"
    log.write_bytes((files["root"] / "s.log").read_bytes())
    assert _cli(["repo", "insert", "--store", str(log), "--sketch", files["sketch"], "--id", "a b"])[0] == 0
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert main(["repo", "query", "--store", str(log), "--sketch", files["sketch"], "--k", "3"]) == 0
    ids = [line.split("\t")[0] for line in out.getvalue().splitlines()]
    assert sorted(ids) == ["a b", "first", "second"]


@pytest.mark.parametrize("field,value", [(("query", "h"), 10**12), (("teacher", "depth"), 400)], ids=["h", "depth"])
def test_huge_depth_ends_within_a_second(files, field, value):
    # a depth is an exponent (beta = 2^(4h-3)/w, unroll tolerances eps/2^level),
    # so it must not be raised to a power as an integer or overflow a float
    command, argv, cfg = next(case for case in _configs(files) if field[1] in case[2].get(field[0], {}))
    (files["root"] / "cfg.json").write_text(json.dumps(_replace(cfg, field, value)))
    start = time.perf_counter()
    rc, err = _cli([command, "--config", str(files["root"] / "cfg.json")] + argv)
    assert time.perf_counter() - start < 1.0
    assert (rc, err) == (0, "") or (rc == 3 and err.startswith(PREFIX[3]) and err.count("\n") == 1), (rc, err)


def _refused(argv: list[str], why: str) -> None:
    rc, err = _cli(argv)
    assert rc == 3 and err.startswith("validation error: ") and err.count("\n") == 1, (argv, rc, err)
    assert why in err, (argv, err)


# _check above accepts exit 0, so it cannot tell a refused non-finite payload
# from one that is scored and printed as nan; these cases pin the refusal
@pytest.mark.parametrize("index", [0, -1])
@pytest.mark.parametrize("value", [float("nan"), float("inf"), float("-inf")])
def test_non_finite_sketch_value_is_refused(files, value, index):
    with open(files["sketch"], "rb") as fh:
        header, payload = fh.read().split(b"\n", 1)
    values = np.frombuffer(payload, dtype="<f8").copy()
    values[index] = value
    sk = files["root"] / "non_finite.sketch"
    sk.write_bytes(header + b"\n" + values.tobytes())
    rec = files["root"] / "rec.json"
    rec.write_text(json.dumps({"seed": 1, "allow_high_noise": True, "params": files["params"],
                               "query": {"kind": "frequency", "module": "m0"}}))
    log = files["root"] / "non_finite.log"
    log.write_bytes((files["root"] / "s.log").read_bytes())
    before = log.read_bytes()
    why = f"sketch values must be finite, value {index % len(values)} is {value!r}"
    for argv in (["recover", "--config", str(rec), "--sketch", str(sk), "--out", str(files["root"] / "out.csv")],
                 ["similarity", "--sketch-a", str(sk), "--sketch-b", files["sketch"]],
                 ["similarity", "--sketch-a", files["sketch"], "--sketch-b", str(sk)],
                 ["repo", "insert", "--store", str(log), "--sketch", str(sk), "--id", "bad"],
                 ["repo", "query", "--store", str(log), "--sketch", str(sk), "--k", "1"]):
        _refused(argv, why)
    assert log.read_bytes() == before


@pytest.mark.parametrize("index", [0, -1])
def test_non_finite_log_record_is_refused(files, index):
    lines = (files["root"] / "s.log").read_bytes().splitlines(keepends=True)
    rec = json.loads(lines[1])
    values = np.frombuffer(base64.b64decode(rec["values"]), dtype="<f8").copy()
    values[index] = float("nan")
    rec["values"] = base64.b64encode(values.tobytes()).decode("ascii")
    log = files["root"] / "nan.log"
    log.write_bytes(lines[0] + json.dumps(rec, sort_keys=True).encode("ascii") + b"\n")
    why = f"{log}: malformed record at byte {len(lines[0])}: sketch values must be finite"
    _refused(["repo", "query", "--store", str(log), "--sketch", files["sketch"], "--k", "1"], why)
    _refused(["repo", "cluster", "--store", str(log), "--k", "1"], why)
