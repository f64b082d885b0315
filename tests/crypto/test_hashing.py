"""Tests for repro.crypto.hashing."""

import pytest
from hypothesis import given, strategies as st

from repro.crypto.hashing import (
    DIGEST_SIZE,
    MerkleTree,
    double_sha256,
    hash_concat,
    leading_zero_bits,
    merkle_root,
    sha256,
)


class TestBasicHashes:
    def test_sha256_empty(self):
        assert sha256(b"").hex() == (
            "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"
        )

    def test_sha256_abc(self):
        assert sha256(b"abc").hex() == (
            "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad"
        )

    def test_double_sha256_is_nested(self):
        data = b"nested hashing"
        assert double_sha256(data) == sha256(sha256(data))

    def test_digest_size(self):
        assert len(sha256(b"anything")) == DIGEST_SIZE


class TestHashConcat:
    def test_differs_from_plain_concat(self):
        # The length prefix must make ("ab","c") != ("a","bc").
        assert hash_concat(b"ab", b"c") != hash_concat(b"a", b"bc")

    def test_empty_parts_are_significant(self):
        assert hash_concat(b"a", b"") != hash_concat(b"a")

    def test_deterministic(self):
        assert hash_concat(b"x", b"y") == hash_concat(b"x", b"y")

    def test_order_matters(self):
        assert hash_concat(b"x", b"y") != hash_concat(b"y", b"x")

    @given(st.lists(st.binary(max_size=64), min_size=1, max_size=5))
    def test_always_32_bytes(self, parts):
        assert len(hash_concat(*parts)) == DIGEST_SIZE


class TestLeadingZeroBits:
    def test_all_zero_digest(self):
        assert leading_zero_bits(b"\x00" * 32) == 256

    def test_no_leading_zeros(self):
        assert leading_zero_bits(b"\xff" + b"\x00" * 31) == 0

    def test_half_byte(self):
        assert leading_zero_bits(b"\x0f" + b"\xff" * 31) == 4

    def test_one_full_zero_byte(self):
        assert leading_zero_bits(b"\x00\x80" + b"\x00" * 30) == 8

    def test_single_low_bit(self):
        assert leading_zero_bits(b"\x01" + b"\x00" * 31) == 7

    @given(st.binary(min_size=1, max_size=32))
    def test_matches_integer_interpretation(self, data):
        as_int = int.from_bytes(data, "big")
        expected = len(data) * 8 - as_int.bit_length()
        assert leading_zero_bits(data) == expected


class TestMerkleTree:
    def test_single_leaf_root(self):
        tree = MerkleTree([b"only"])
        assert tree.root == sha256(b"\x00only")

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            MerkleTree([])

    def test_root_changes_with_leaf(self):
        a = MerkleTree([b"a", b"b"]).root
        b = MerkleTree([b"a", b"c"]).root
        assert a != b

    def test_root_changes_with_order(self):
        assert MerkleTree([b"a", b"b"]).root != MerkleTree([b"b", b"a"]).root

    def test_leaf_vs_node_domain_separation(self):
        # A single leaf equal to a concatenated-node encoding must not
        # produce an interior digest.
        inner = MerkleTree([b"a", b"b"])
        fake_leaf = inner._levels[0][0] + inner._levels[0][1]
        assert MerkleTree([fake_leaf]).root != inner.root


class TestMerkleRoot:
    def test_empty_is_zero(self):
        assert merkle_root([]) == b"\x00" * DIGEST_SIZE

    def test_nonempty_matches_tree(self):
        leaves = [b"x", b"y"]
        assert merkle_root(leaves) == MerkleTree(leaves).root
