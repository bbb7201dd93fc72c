"""No two random streams of a run share a word.

Backend parity and the golden pins show that a run is reproducible, not
that its chunks are independent: chunk seeds come from ``derive_seed``, a
hash, so two chunk streams could share SplitMix64 counters. Each run below
records every stream it draws from, as (seed, words): a labelled parent
stream draws its words one at a time, and a chunk stream spans its slots
times its program's period, unread words included. ``streams_overlap``
then proves the streams disjoint on the ring of counters.
"""

import pytest

from entmac import _kernels, cli
from entmac._kernels import pure
from entmac.rng import _GOLDEN, _MASK64, RandomSource

from _support import GOLDEN_INVERSE, streams_overlap
from cli_runs import PINS

#: every CLI run whose output is pinned, each spelling once
RUNS = sorted({run.argv for runs in PINS.values() for run in runs})


def run_streams(monkeypatch, capsys, argv):
    """(seed, words) of each stream the CLI run ``argv`` draws from, parents first.

    The chunks run in this process on the pure backend, whose fold is
    replaced by one that records the chunk's stream and counts every slot at
    index 0: a stream depends on the seeds and slot counts alone. The
    recorder sits at the fold, not at the histogram, because a program whose
    table names one counter is folded without a histogram.
    """
    parents, chunks = [], []
    init = RandomSource.__init__

    def recording_init(self, seed):
        init(self, seed)
        parents.append((self, seed & _MASK64))

    def recording_tally(histogram, n_slots, seed, program):
        chunks.append((seed, n_slots * program.period))
        counts = [0] * program.size
        counts[program.table[0]] = n_slots
        return counts

    monkeypatch.setattr(RandomSource, "__init__", recording_init)
    monkeypatch.setattr(pure, "_tally", recording_tally)
    monkeypatch.setattr(_kernels, "_fast", None)
    monkeypatch.setattr(_kernels, "_usable_cpus", lambda: 1)
    assert cli.main(argv.split()) == 0
    capsys.readouterr()
    drawn = [(seed, (rng._state - seed) * GOLDEN_INVERSE % (1 << 64)) for rng, seed in parents]
    return drawn + chunks


@pytest.mark.parametrize("argv", RUNS)
def test_the_streams_of_a_run_share_no_word(monkeypatch, capsys, argv):
    streams = run_streams(monkeypatch, capsys, argv)
    assert streams_overlap(streams) is None


def test_a_run_counts_each_slot_as_its_period_of_words(monkeypatch, capsys):
    # three labelled parents draw one word each; a hyperdense slot with qubit pairs spans
    # 6 words, a superdense trial 3 and a two-user Aloha slot 2, read or not
    streams = run_streams(monkeypatch, capsys, "compare --slots 1000000 --seed 42")
    assert len(streams) == 3 + 3 * 16
    assert sum(words for _, words in streams) == 3 + 10**6 * (6 + 3 + 2)


def test_streams_that_share_a_word_are_flagged():
    seed = 12345
    # word 9 of the first stream is word 0 of the second
    assert streams_overlap([(seed, 10), (seed + 9 * _GOLDEN & _MASK64, 10)]) == (
        seed, seed + 9 * _GOLDEN & _MASK64)
    # the second's first word is the one after the first's last
    assert streams_overlap([(seed, 10), (seed + 10 * _GOLDEN & _MASK64, 10)]) is None
    # in units of GOLDEN, a stream from 2**64 - 2 runs round the ring through 0 and 1 and
    # meets one from 1 at its fourth word
    end = -2 * _GOLDEN & _MASK64
    assert streams_overlap([(_GOLDEN, 10), (end, 3)]) is None
    assert streams_overlap([(_GOLDEN, 10), (end, 4)]) == (end, _GOLDEN)
    # the same seed twice
    assert streams_overlap([(seed, 1), (seed, 1)]) is not None
