"""Tests for the vocabulary universe and word forge."""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.errors import ConfigurationError
from repro.rng import SeedSpawner
from repro.corpus.vocabulary import (
    PAPER_PROFILE,
    SMALL_PROFILE,
    TINY_PROFILE,
    Vocabulary,
    VocabularyProfile,
    WordForge,
)


class TestProfiles:
    def test_paper_profile_calibration(self):
        # The membership arithmetic must reproduce the paper's counts.
        assert PAPER_PROFILE.aspell_size == 98_568
        assert PAPER_PROFILE.usenet_pool_size == 91_160

    def test_small_profile_is_tenth_scale(self):
        ratio = PAPER_PROFILE.aspell_size / SMALL_PROFILE.aspell_size
        assert 9.5 < ratio < 10.5

    def test_invalid_profiles_rejected(self):
        with pytest.raises(ConfigurationError):
            VocabularyProfile(name="bad", core_size=0, formal_size=1, colloquial_size=1,
                              ham_topic_size=1, spam_shared_size=1, spam_unlisted_size=1,
                              entity_size=1)
        with pytest.raises(ConfigurationError):
            VocabularyProfile(name="bad", core_size=10, formal_size=-1, colloquial_size=1,
                              ham_topic_size=1, spam_shared_size=1, spam_unlisted_size=1,
                              entity_size=1)

    def test_total_size(self):
        assert TINY_PROFILE.total_size == sum(
            (
                TINY_PROFILE.core_size,
                TINY_PROFILE.formal_size,
                TINY_PROFILE.colloquial_size,
                TINY_PROFILE.ham_topic_size,
                TINY_PROFILE.spam_shared_size,
                TINY_PROFILE.spam_unlisted_size,
                TINY_PROFILE.entity_size,
            )
        )


class TestVocabularyBuild:
    def test_slice_sizes_match_profile(self, tiny_vocabulary):
        vocab, profile = tiny_vocabulary, TINY_PROFILE
        assert len(vocab.core) == profile.core_size
        assert len(vocab.formal) == profile.formal_size
        assert len(vocab.colloquial) == profile.colloquial_size
        assert len(vocab.ham_topic) == profile.ham_topic_size
        assert len(vocab.spam_shared) == profile.spam_shared_size
        assert len(vocab.spam_unlisted) == profile.spam_unlisted_size
        assert len(vocab.entity) == profile.entity_size
        assert len(vocab) == profile.total_size

    def test_slices_disjoint(self, tiny_vocabulary):
        slices = [
            set(tiny_vocabulary.core),
            set(tiny_vocabulary.formal),
            set(tiny_vocabulary.colloquial),
            set(tiny_vocabulary.ham_topic),
            set(tiny_vocabulary.spam_shared),
            set(tiny_vocabulary.spam_unlisted),
            set(tiny_vocabulary.entity),
        ]
        union = set()
        total = 0
        for piece in slices:
            union |= piece
            total += len(piece)
        assert len(union) == total

    def test_deterministic(self):
        a = Vocabulary.build(TINY_PROFILE, seed=5)
        b = Vocabulary.build(TINY_PROFILE, seed=5)
        assert a.core == b.core
        assert a.entity == b.entity

    def test_seed_changes_words(self):
        a = Vocabulary.build(TINY_PROFILE, seed=5)
        b = Vocabulary.build(TINY_PROFILE, seed=6)
        assert a.core != b.core

    def test_words_fit_tokenizer_band(self, tiny_vocabulary):
        for word in tiny_vocabulary.all_words():
            assert 3 <= len(word) <= 12, word

    def test_all_words_iterates_everything(self, tiny_vocabulary):
        assert sum(1 for _ in tiny_vocabulary.all_words()) == len(tiny_vocabulary)

    def test_slice_of(self, tiny_vocabulary):
        assert tiny_vocabulary.slice_of(tiny_vocabulary.core[0]) == "core"
        assert tiny_vocabulary.slice_of(tiny_vocabulary.entity[0]) == "entity"
        assert tiny_vocabulary.slice_of("definitely-not-a-word!") is None

    def test_aspell_words_composition(self, tiny_vocabulary):
        aspell = set(tiny_vocabulary.aspell_words())
        assert set(tiny_vocabulary.core) <= aspell
        assert set(tiny_vocabulary.formal) <= aspell
        assert not (set(tiny_vocabulary.colloquial) & aspell)
        assert not (set(tiny_vocabulary.entity) & aspell)

    def test_usenet_pool_composition(self, tiny_vocabulary):
        pool = set(tiny_vocabulary.usenet_pool())
        assert set(tiny_vocabulary.core) <= pool
        assert set(tiny_vocabulary.colloquial) <= pool
        assert not (set(tiny_vocabulary.formal) & pool)
        assert not (set(tiny_vocabulary.entity) & pool)
        assert set(tiny_vocabulary.spam_unlisted_slangy) <= pool


class TestWordForge:
    def _forge(self) -> WordForge:
        return WordForge(SeedSpawner(1).spawn("forge-test"))

    def test_words_unique(self):
        forge = self._forge()
        words = forge.words(500)
        assert len(set(words)) == 500

    def test_misspelling_differs_from_source(self):
        forge = self._forge()
        word = forge.word()
        variant = forge.misspelling_of(word)
        assert variant != word
        assert 3 <= len(variant) <= 12

    def test_obfuscation_differs_from_source(self):
        forge = self._forge()
        word = forge.word()
        variant = forge.obfuscation_of(word)
        assert variant != word
        assert any(ch.isdigit() or ch == "v" for ch in variant)

    def test_entity_has_digits(self):
        forge = self._forge()
        for _ in range(10):
            assert any(ch.isdigit() for ch in forge.entity())

    def test_obfuscation_escapes_truncation_dead_end(self):
        # A 12-character word with no substitutable letter whose only
        # reachable candidate is already taken: every appended digit is
        # truncated away, so the forge must perturb inside the word.
        forge = self._forge()
        word = "bcdfghjklmnp"
        forge._seen.add(word)
        variant = _with_deadline(
            "from repro.corpus.vocabulary import WordForge\n"
            "from repro.rng import SeedSpawner\n"
            "forge = WordForge(SeedSpawner(1).spawn('forge-test'))\n"
            f"forge._seen.add({word!r})\n"
            f"print(forge.obfuscation_of({word!r}))\n"
        )
        assert variant != word
        assert len(variant) == 12
        assert variant == forge.obfuscation_of(word)


def _with_deadline(code: str, seconds: float = 60.0) -> str:
    """Run ``code`` in a fresh interpreter; a hang fails, not stalls."""
    env = dict(os.environ)
    env["PYTHONPATH"] = "src"
    done = subprocess.run(
        [sys.executable, "-c", code],
        cwd=Path(__file__).resolve().parent.parent,
        env=env,
        capture_output=True,
        text=True,
        timeout=seconds,
    )
    assert done.returncode == 0, done.stderr
    return done.stdout.strip()


def test_small_profile_seed_220_builds_within_deadline():
    # Seed 220 once drove obfuscation_of into its truncation dead end
    # and hung Vocabulary.build forever.
    out = _with_deadline(
        "from repro.corpus.vocabulary import SMALL_PROFILE, Vocabulary\n"
        "vocabulary = Vocabulary.build(SMALL_PROFILE, seed=220)\n"
        "print(len(vocabulary.spam_unlisted))\n"
    )
    assert int(out) == SMALL_PROFILE.spam_unlisted_size
