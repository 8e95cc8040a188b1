//! Code tokenization and vocabulary.
//!
//! The paper represents stage-level codes as a matrix of token embeddings
//! (`C_i ∈ R^{D×N}`, `N = 1000` tokens, zero-padded). This module supplies
//! the tokenizer that turns Scala-like source into token strings, and a
//! [`Vocab`] built from the training corpus with reserved `<pad>` and
//! `<oov>` ids so unseen test-time tokens degrade gracefully.

use std::collections::HashMap;

/// Reserved id for padding (zero embedding).
pub const PAD_TOKEN_ID: usize = 0;
/// Reserved id for out-of-vocabulary tokens.
pub const OOV_TOKEN_ID: usize = 1;

/// Split source code into tokens: identifiers (with `.`-separated parts
/// split), numbers, and single-character operators. Whitespace and string
/// literal contents are dropped.
///
/// Delegates to the workspace's one lexer in `lite-analyze`, which also
/// handles `//` line comments, `\"` escapes inside string literals, and
/// unterminated strings at EOF (the historical ad-hoc scanner mishandled
/// all three).
pub fn tokenize(source: &str) -> Vec<String> {
    lite_analyze::lex::flat_tokens(source)
}

/// A token vocabulary with reserved `<pad>` / `<oov>` entries.
#[derive(Debug, Clone)]
pub struct Vocab {
    token_to_id: HashMap<String, usize>,
    id_to_token: Vec<String>,
}

impl Vocab {
    /// Build a vocabulary from a corpus of token streams. Tokens occurring
    /// fewer than `min_count` times are left out (they will map to `<oov>`).
    pub fn build<'a, I>(corpus: I, min_count: usize) -> Vocab
    where
        I: IntoIterator<Item = &'a [String]>,
    {
        let mut counts: HashMap<&str, usize> = HashMap::new();
        for stream in corpus {
            for t in stream {
                *counts.entry(t.as_str()).or_default() += 1;
            }
        }
        let mut kept: Vec<(&str, usize)> =
            counts.into_iter().filter(|(_, c)| *c >= min_count).collect();
        // Deterministic order: by frequency desc, then lexicographic.
        kept.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(b.0)));
        let mut id_to_token = vec!["<pad>".to_string(), "<oov>".to_string()];
        id_to_token.extend(kept.into_iter().map(|(t, _)| t.to_string()));
        let token_to_id = id_to_token.iter().enumerate().map(|(i, t)| (t.clone(), i)).collect();
        Vocab { token_to_id, id_to_token }
    }

    /// Vocabulary size including reserved entries.
    pub fn len(&self) -> usize {
        self.id_to_token.len()
    }

    /// True when only the reserved tokens exist.
    pub fn is_empty(&self) -> bool {
        self.id_to_token.len() <= 2
    }

    /// Id of a token, or `OOV_TOKEN_ID` when unknown.
    pub fn id(&self, token: &str) -> usize {
        self.token_to_id.get(token).copied().unwrap_or(OOV_TOKEN_ID)
    }

    /// Token for an id (panics on out-of-range ids).
    pub fn token(&self, id: usize) -> &str {
        &self.id_to_token[id]
    }

    /// Encode a token stream to ids, truncated/padded to `max_len`.
    pub fn encode(&self, tokens: &[String], max_len: usize) -> Vec<usize> {
        let mut ids: Vec<usize> = tokens.iter().take(max_len).map(|t| self.id(t)).collect();
        ids.resize(max_len, PAD_TOKEN_ID);
        ids
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tokenize_splits_identifiers_and_operators() {
        let toks = tokenize("val x = rdd.map(f).reduceByKey(_ + _)");
        let expect = [
            "val",
            "x",
            "=",
            "rdd",
            ".",
            "map",
            "(",
            "f",
            ")",
            ".",
            "reduceByKey",
            "(",
            "_",
            "+",
            "_",
            ")",
        ];
        assert_eq!(toks, expect.map(String::from).to_vec());
    }

    #[test]
    fn tokenize_collapses_string_literals() {
        let toks = tokenize(r#"setAppName("TeraSort")"#);
        assert!(toks.contains(&"\"str\"".to_string()));
        assert!(!toks.iter().any(|t| t.contains("TeraSort")));
    }

    #[test]
    fn tokenize_skips_line_comments() {
        assert_eq!(tokenize("a // comment with val x = 1\nb"), ["a", "b"].map(String::from));
        // A lone slash is still an operator token.
        assert_eq!(tokenize("a / b"), ["a", "/", "b"].map(String::from));
    }

    #[test]
    fn tokenize_handles_escaped_quotes_in_strings() {
        // The escaped quote stays inside: one literal, not two.
        assert_eq!(
            tokenize(r#"f("a\"b") + g"#),
            ["f", "(", "\"str\"", ")", "+", "g"].map(String::from)
        );
    }

    #[test]
    fn tokenize_keeps_unterminated_string_at_eof() {
        assert_eq!(tokenize(r#"x = "never closed"#), ["x", "=", "\"str\""].map(String::from));
    }

    #[test]
    fn vocab_reserves_pad_and_oov() {
        let streams = [tokenize("map filter map"), tokenize("map reduce")];
        let refs: Vec<&[String]> = streams.iter().map(|s| s.as_slice()).collect();
        let v = Vocab::build(refs.iter().copied(), 1);
        assert_eq!(v.token(PAD_TOKEN_ID), "<pad>");
        assert_eq!(v.token(OOV_TOKEN_ID), "<oov>");
        // "map" is the most frequent real token -> first non-reserved id.
        assert_eq!(v.id("map"), 2);
        assert_eq!(v.id("never-seen"), OOV_TOKEN_ID);
    }

    #[test]
    fn min_count_filters_rare_tokens() {
        let streams = [tokenize("common common rare")];
        let refs: Vec<&[String]> = streams.iter().map(|s| s.as_slice()).collect();
        let v = Vocab::build(refs.iter().copied(), 2);
        assert_ne!(v.id("common"), OOV_TOKEN_ID);
        assert_eq!(v.id("rare"), OOV_TOKEN_ID);
    }

    #[test]
    fn encode_pads_and_truncates() {
        let stream = tokenize("a b c");
        let refs: Vec<&[String]> = vec![stream.as_slice()];
        let v = Vocab::build(refs.iter().copied(), 1);
        let short = v.encode(&stream, 5);
        assert_eq!(short.len(), 5);
        assert_eq!(&short[3..], &[PAD_TOKEN_ID, PAD_TOKEN_ID]);
        let truncated = v.encode(&stream, 2);
        assert_eq!(truncated.len(), 2);
        assert!(truncated.iter().all(|&id| id != PAD_TOKEN_ID));
    }

    #[test]
    fn vocab_build_is_deterministic() {
        let streams = [tokenize("x y z zz y x w v u t"), tokenize("y x q")];
        let refs: Vec<&[String]> = streams.iter().map(|s| s.as_slice()).collect();
        let a = Vocab::build(refs.iter().copied(), 1);
        let b = Vocab::build(refs.iter().copied(), 1);
        assert_eq!(a.id_to_token, b.id_to_token);
    }
}
