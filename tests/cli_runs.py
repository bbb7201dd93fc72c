"""Every CLI run whose stdout is pinned: its argv, why it is listed, and the sha256 it prints.

``PINS`` maps the sha256 of an output to the runs that must print it. Runs
that must print the same bytes, at another worker count, on one CPU or with
their flags spelled another way, share one pin. So a twin pair is stated
once, and a change that moves both twins alike fails too. A ``Run`` is the
words after ``entmac``, the reason it is listed, and whether it runs on one
CPU, where a run has one process that forks nothing.

``python tests/cli_runs.py`` runs each entry as ``python -X dev -W error -m
entmac ARGV`` from the repository root with ``PYTHONPATH=src``, a one-CPU
entry under ``taskset -c 0``, on whichever backend is built there. It fails
on any byte written to stderr (under ``-X dev -W error`` an unclosed pipe's
ResourceWarning or a fork DeprecationWarning is an error), on an exit status
other than 0, and on any stdout whose sha256 is not the pin. Each failure
prints the command that replays it and the sha256 it got. It imports no
``entmac``. CI runs it before and after building the compiled kernel, and
``tests/test_backends.py`` runs every entry in process on the compiled
backend, and the entries of at most 100 000 slots on the pure one too.
"""

import hashlib
import os
import shlex
import subprocess
import sys
from pathlib import Path
from typing import NamedTuple


class Run(NamedTuple):
    argv: str  # the words after ``entmac``, split on whitespace
    why: str
    one_cpu: bool = False


AUTO = ("--workers auto: one child per usable CPU on the pure backend, none on the compiled "
        "one")
FORKED = "forked children on either backend print what one process prints"
WORDS_512 = ("a second chunk that ended one slot into a group when a block of the pure "
             "evaluator was 512 read words ({}); now it ends inside a group's first blocks")
GROUP_4097 = ("a second chunk of 4097 slots, one slot into the second group of the pure "
              "evaluator's unit of conversion: eight 512-slot blocks of one-byte indices")
GOLDEN = ("the {} serializer of {} over a quarter chunk: a moved floating-point operation or "
          "random draw shows here")

#: the sha256 of an output: the runs that must print it
PINS = {
    "7660e5f6770d427a3b918abf73104458803d8323317a5f1f3483a1eb85421d3f": (
        Run("compare --slots 1000000 --seed 42 --workers 1",
            "the headline: the paper's three numbers at 10^6 slots, in one process"),
        Run("compare --slots 1000000 --seed 42 --workers 2", FORKED),
        Run("compare --slots 1000000 --seed 42", AUTO),
    ),
    "c5ca465a369f8157e554bfed33b5e5edbfeee38c78050a8b5c9ce2c011cd535f": (
        Run("aloha --users 8 --slots 1000000 --workers 1",
            "eight-user slotted Aloha at 10^6 slots, in one process"),
        Run("aloha --users 8 --slots 1000000 --workers 2", FORKED),
        Run("aloha --users 8 --slots 1000000", AUTO),
        Run("aloha --users=8 --slots=1000000 --workers=2",
            "the CLI's grammar: --flag=value words read as the spelled-out flags"),
    ),
    "0659941055b19e27e24f1c8ac2fcdadab46d22e808262c76ec6d39da67cb9530": (
        Run("superdense --slots 1000000 --workers 1",
            "superdense coding at 10^6 slots, in one process"),
        Run("superdense --slots 1000000 --workers 2", FORKED),
        Run("superdense --slots 1000000", AUTO),
    ),
    "bf8812af5f4236cda11a880941aaef3d7a3d589c9dcb619d567ea82de9889bd3": (
        Run("hyperdense --c-source coin --workers 2 --slots 1000000",
            "hyperdense with coin pairs at 10^6 slots, in a forked child and this process"),
        Run("hyperdense --c-source coin --slots 1000000 --workers 1",
            "another worker count prints the same bytes"),
        Run("hyperdense --c-source coin --workers 2 --slots 1000000",
            "on one CPU the chunks run in one process that forks nothing", one_cpu=True),
        Run("hyperdense --c-source coin --slots 1000000", AUTO),
    ),
    "32ad965ae6fbc3425119ea19e35bdaf2c9c243096302b3027076811ae3b8e96c": (
        Run("hyperdense --slots 1000000", "hyperdense with qubit pairs at 10^6 slots"),
    ),
    "98a117adea8d663e96d0ec8f440f007b4ad489d9bfa56e444522f59f2241b580": (
        Run("hyperdense --c-source coin --workers 2 --format json --slots 1000000",
            "the JSON serializer of a forked run"),
    ),
    "6fd4968b706a5d05577c90b5ba9ce484ec17597c195b9ed597972c1fcb3e74b2": (
        Run("aloha --users 8 --format csv --slots 1000000", "the CSV serializer at 10^6 slots"),
    ),
    "e3728f96c1715ccefbbb134b43d043adcdeae78e880acf24f8e29bd4b68699ce": (
        Run("aloha --users 3 --p 0.3 --slots 1000000",
            "a threshold not a multiple of 2**22: the pure evaluator runs mix64's last step"),
    ),
    "eef4cd7a62c02a0beece7bc955efbdf9372991e2dbd5314502683b6ccc70a398": (
        Run("aloha --users 300 --slots 20000", "indices above 255: two-byte index lanes"),
    ),
    "0fa1014a69b654c8b21a8b08389ad40d617747f2341a4415818d3b6edc6a0dca": (
        Run("hyperdense --slots 66897", WORDS_512.format("1360 hyperdense slots of 3 words")),
    ),
    "1633eb6e0727b5bcc3cb1e9335786b18954eced060937504f61775afa33446d7": (
        Run("hyperdense --c-source coin --slots 66897",
            WORDS_512.format("1360 hyperdense slots of 3 words")),
        Run("hyperdense --c coin --slot 66897",
            "the CLI's grammar: unique prefixes of flag names read as the spelled-out flags"),
    ),
    "6e4c687b97a07a18662039a2368173fc175d956176fadf73ee30e6ca54074a2a": (
        Run("aloha --users 8 --slots 66049", WORDS_512.format("512 eight-user slots")),
    ),
    "725c033297a7ef426ac2e55dcdba12e51e58f2ea8f2dee0aa37025f281f3c401": (
        Run("hyperdense --slots 66353",
            WORDS_512.format("816 hyperdense slots when one read 5 words")),
    ),
    "29c982a025a058fa34e270e83a297b2300dba026f4fcd3b3802e2f76ac38966c": (
        Run("hyperdense --slots 69633", GROUP_4097 + "; the c read runs mix64's last step"),
    ),
    "bfcd1eee91d8829ed7fc0cf6ba6d1ab0ea0b5f7a6f0fa2d84bffd062f531fe4d": (
        Run("hyperdense --c-source coin --slots 69633",
            GROUP_4097 + "; no read runs mix64's last step"),
    ),
    "29d7fc97c87990a247d76dbb29f9414b36e620e93313728ed1f552c71b869b2a": (
        Run("aloha --users 8 --slots 69633", GROUP_4097),
    ),
    "ac33fcced690f51e3a582b807118bf8736d1ce3539b1a57a55c7185c2f0c3c3f": (
        Run("aloha --users 300 --slots 2049",
            "2049 slots, one slot into the second group of four blocks of two-byte indices"),
    ),
    "67ad080dba1de3f881663c0ab41fef02b4d9011a3dda5fe1f1ea06c0017ce124": (
        Run("aloha --users 100 --slots 70000",
            "101 one-byte indices, counted one bytes.count pass each; a second chunk of 4464 "
            "slots"),
    ),
    "ac2aae9610595259bc9afc02c50b7798a08abff6ada2d988552639b68d100b78": (
        Run("compare --slots 69633 --seed 7 --workers 1",
            "a second chunk of 4097 slots for every protocol: superdense's constant table is "
            "folded without a histogram, and the qubit program, whose c read alone runs "
            "mix64's last step, ends one slot into a group"),
        Run("compare --slots 69633 --seed 7 --workers 2",
            "the same with the second chunks run in a forked share"),
    ),
    "851aa18ccd72f10253699f0c1124b73aab5f2ce8d25aaedaead7c1e4346b9237": (
        Run("aloha --p 0 --slots 1000", "no user transmits: every throughput is 0.0"),
        Run("aloha --p -0 --slots 1000",
            "p = -0.0 makes a config equal to p = 0.0, so it echoes the same bytes"),
    ),
    "d15f34ed33ac59dc777ea6dd9ed6bdab79d78ff09172011809b15765c06bd728": (
        Run("compare --slots 16384 --seed 42 --format text",
            "the output perfbench/expected.json also pins for its compare workload"),
    ),
    "062def1fa99f3403a15d005825739136736f7e32abd85b5fc875c5c4ccd3ac39": (
        Run("compare --slots 16384 --seed 42 --format csv", GOLDEN.format("CSV", "compare")),
    ),
    "52164a69de6baaf99cabac10230b9b37541b05ccb69a8bf0b1513976a9612893": (
        Run("compare --slots 16384 --seed 42 --format json", GOLDEN.format("JSON", "compare")),
    ),
    "123d1c9a7806150ff902c075f778b995c9347d2e71da33041d2bd47aa88094f3": (
        Run("aloha --slots 16384 --seed 42 --format text", GOLDEN.format("text", "aloha")),
    ),
    "257ba7b8de89af85252744ce44ad4e2482f14fc9f2cd8fe320ab810e804e4473": (
        Run("aloha --slots 16384 --seed 42 --format csv", GOLDEN.format("CSV", "aloha")),
    ),
    "af5527cb71b8ff53d632d07a212be65f37e3f0a9fbdc5d0f10b54d4ef629eb42": (
        Run("aloha --slots 16384 --seed 42 --format json", GOLDEN.format("JSON", "aloha")),
    ),
    "a060dc6831d182b47a5990b4bf8bc850064e2a77e71f6327c2592a69cfdc3e02": (
        Run("superdense --slots 16384 --seed 42 --format text",
            GOLDEN.format("text", "superdense")),
    ),
    "8fb4b7ff69e4b4dffdcb2e98535be1c082bce3057038fb5e2d9d8f2430969e01": (
        Run("superdense --slots 16384 --seed 42 --format csv",
            GOLDEN.format("CSV", "superdense")),
    ),
    "58f36e9e0bd269cce9d198d876846bc372f3eb983fe8bfc5b0ae3c7237af078e": (
        Run("superdense --slots 16384 --seed 42 --format json",
            GOLDEN.format("JSON", "superdense")),
    ),
    "d66235369a2c1980908e3bfa68d26266921d48e48198c700b3355d0b0a337883": (
        Run("hyperdense --slots 16384 --seed 42 --format text",
            GOLDEN.format("text", "hyperdense")),
    ),
    "498b438af78f63268c644c8ee5c701e4b3fdbe31084ec5b443c6ccc1f8ee4377": (
        Run("hyperdense --slots 16384 --seed 42 --format csv",
            GOLDEN.format("CSV", "hyperdense")),
    ),
    "e57976b6caad8e95c82790941ecc473c056557b45b97da7675275ccc8f7498e9": (
        Run("hyperdense --slots 16384 --seed 42 --format json",
            GOLDEN.format("JSON", "hyperdense")),
    ),
    "7dfd392abdd54a8b3d4fb08942490c98e3a93da6aec0e379b7277aafe2723ffb": (
        Run("table --format text", "the eight-scenario table, by exact enumeration, as text"),
    ),
    "add9fbcfb576c41dc53b5ba440132fa5aa58b4c748501ea4446b296a8bbbcd0a": (
        Run("table --format csv", "the eight-scenario table as CSV"),
    ),
    "fcafc0a46516eefa23cf8ce7466caaf0246185352a7fbd249ebfc63d6356813c": (
        Run("table --format json", "the eight-scenario table as JSON"),
    ),
}


def main() -> int:
    """Run every entry; 1 if any fails, after reporting each failure."""
    root = Path(__file__).resolve().parents[1]
    env = {**os.environ, "PYTHONPATH": "src"}
    runs = [(digest, run) for digest, group in PINS.items() for run in group]
    failed = 0
    for digest, run in runs:
        command = ((["taskset", "-c", "0"] if run.one_cpu else [])
                   + [sys.executable, "-X", "dev", "-W", "error", "-m", "entmac",
                      *run.argv.split()])
        done = subprocess.run(command, cwd=root, env=env, capture_output=True)
        got = hashlib.sha256(done.stdout).hexdigest()
        if done.returncode or done.stderr or got != digest:
            failed += 1
            print(f"FAIL: PYTHONPATH=src {shlex.join(command)}\n"
                  f"  exit status {done.returncode}, stdout sha256 {got}, pinned {digest}")
            sys.stdout.write(done.stderr.decode(errors="replace"))
    print(f"{len(runs)} runs, {failed} failed")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
