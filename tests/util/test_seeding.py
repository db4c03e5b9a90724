"""Unit tests for hierarchical seed derivation."""

from repro.util.seeding import derive_seed


class TestDeriveSeed:
    def test_deterministic(self):
        assert derive_seed(1, "a", 2) == derive_seed(1, "a", 2)

    def test_parent_seed_matters(self):
        assert derive_seed(1, "a") != derive_seed(2, "a")

    def test_tokens_matter(self):
        assert derive_seed(0, "block", 0) != derive_seed(0, "block", 1)

    def test_token_boundaries_unambiguous(self):
        assert derive_seed(0, "ab", "c") != derive_seed(0, "a", "bc")

    def test_returns_64_bit_value(self):
        value = derive_seed(123, "x")
        assert 0 <= value < 2**64

    def test_mixed_token_types(self):
        assert derive_seed(0, 1) != derive_seed(0, "1")
