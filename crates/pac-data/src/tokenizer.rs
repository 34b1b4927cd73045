//! A small deterministic tokenizer mapping text to the synthetic
//! vocabulary, so examples and downstream users can feed real strings to
//! the micro models.
//!
//! The tokenizer is intentionally simple — lowercase word-level hashing
//! into the content-token range — because the micro models' vocabulary is
//! 64 ids. It is *stable*: the same word always maps to the same id, so
//! personalization data tokenizes consistently across sessions, which is
//! what the activation cache keys rely on.

use crate::synth::VOCAB;

/// Reserved token ids (shared with the synthetic generators).
pub const PAD: usize = 0;
/// Sequence-start token.
pub const START: usize = 1;
/// Segment separator.
pub const SEP: usize = 2;
/// Unknown/rare-word token.
pub const UNK: usize = 3;
const CONTENT_START: usize = 4;

/// Word-level hashing tokenizer over the synthetic vocabulary.
#[derive(Debug, Clone, Default)]
pub struct Tokenizer;

impl Tokenizer {
    /// Creates the tokenizer.
    pub fn new() -> Self {
        Tokenizer
    }

    /// Maps one word to a stable content-token id.
    pub fn token_for_word(&self, word: &str) -> usize {
        if word.is_empty() {
            return UNK;
        }
        // FNV-1a over the lowercased bytes: stable across platforms.
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        for b in word.bytes() {
            let lb = b.to_ascii_lowercase();
            h ^= lb as u64;
            h = h.wrapping_mul(0x1000_0000_01b3);
        }
        CONTENT_START + (h as usize) % (VOCAB - CONTENT_START)
    }

    /// Tokenizes `text` into exactly `seq_len` ids (whitespace-split words,
    /// truncated or PAD-padded).
    pub fn encode(&self, text: &str, seq_len: usize) -> Vec<usize> {
        let mut out: Vec<usize> = text
            .split_whitespace()
            .take(seq_len)
            .map(|w| self.token_for_word(w))
            .collect();
        out.resize(seq_len, PAD);
        out
    }

    /// Tokenizes a sentence pair as `A SEP B`, fitting `seq_len`.
    pub fn encode_pair(&self, a: &str, b: &str, seq_len: usize) -> Vec<usize> {
        let half = (seq_len.saturating_sub(1)) / 2;
        let mut out: Vec<usize> = a
            .split_whitespace()
            .take(half)
            .map(|w| self.token_for_word(w))
            .collect();
        out.resize(half, PAD);
        out.push(SEP);
        let mut bs: Vec<usize> = b
            .split_whitespace()
            .take(seq_len - half - 1)
            .map(|w| self.token_for_word(w))
            .collect();
        bs.resize(seq_len - half - 1, PAD);
        out.extend(bs);
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn encoding_is_stable_and_case_insensitive() {
        let t = Tokenizer::new();
        assert_eq!(t.token_for_word("lights"), t.token_for_word("LIGHTS"));
        assert_eq!(
            t.encode("turn on the lights", 8),
            t.encode("turn on the lights", 8)
        );
        // With only 60 content buckets individual collisions happen; the
        // requirement is that a small vocabulary still spreads out.
        let words = [
            "lights", "music", "heating", "door", "window", "alarm", "oven", "fan", "tv", "lock",
        ];
        let distinct: std::collections::HashSet<usize> =
            words.iter().map(|w| t.token_for_word(w)).collect();
        assert!(distinct.len() >= 6, "only {} distinct ids", distinct.len());
    }

    #[test]
    fn tokens_stay_in_vocab() {
        let t = Tokenizer::new();
        for word in ["a", "zebra", "Hello!", "42", "ß", ""] {
            assert!(t.token_for_word(word) < VOCAB);
        }
        let ids = t.encode("one two three four five six seven eight nine", 6);
        assert_eq!(ids.len(), 6);
        assert!(ids.iter().all(|&i| i < VOCAB));
    }

    #[test]
    fn padding_and_truncation() {
        let t = Tokenizer::new();
        let short = t.encode("hi", 5);
        assert_eq!(short.len(), 5);
        assert_eq!(&short[1..], &[PAD; 4]);
        let long = t.encode("a b c d e f g h", 3);
        assert_eq!(long.len(), 3);
        assert!(long.iter().all(|&i| i >= 4));
    }

    #[test]
    fn pair_encoding_has_separator() {
        let t = Tokenizer::new();
        let ids = t.encode_pair("is the heating on", "yes it is", 9);
        assert_eq!(ids.len(), 9);
        assert_eq!(ids[4], SEP);
    }

    #[test]
    fn encodings_feed_models() {
        // End-to-end: tokenized text runs through a micro model.
        use pac_tensor::rng::seeded;
        let t = Tokenizer::new();
        let cfg = pac_model_stub();
        let model = pac_model::EncDecModel::new(&cfg, 2, &mut seeded(1));
        let batch = vec![
            t.encode("turn on the lights", 6),
            t.encode("play some music", 6),
        ];
        let (logits, _) = model.forward(&batch).unwrap();
        assert_eq!(logits.dims(), &[2, 2]);
    }

    fn pac_model_stub() -> pac_model::ModelConfig {
        pac_model::ModelConfig::micro(1, 1, 16, 2)
    }
}
