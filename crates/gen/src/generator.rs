//! Coverage-guaranteed sample generation (the ToXgene substitute).
//!
//! A sample is *representative* of a SORE when 2T-INF recovers its SOA
//! exactly, i.e. when it exhibits every first symbol, last symbol and
//! 2-gram (§4). [`generate_sample`] seeds the sample with the covering
//! words of the target and fills the rest with random draws, exactly the
//! protocol the paper describes for Table 2 ("taking care that all
//! relevant examples were present to ensure the target expression could
//! be learned").

use dtdinfer_regex::alphabet::Word;
use dtdinfer_regex::ast::Regex;
use dtdinfer_regex::sample::{covering_words, sample_words, SampleConfig};
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Generates `n` words from `L(r)`, guaranteeing representativeness when
/// `n` is at least the number of covering words.
pub fn generate_sample(r: &Regex, n: usize, seed: u64) -> Vec<Word> {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut words = covering_words(r);
    words.truncate(n);
    if words.len() < n {
        let cfg = SampleConfig::default();
        words.extend(sample_words(r, &cfg, &mut rng, n - words.len()));
    }
    words
}

#[cfg(test)]
mod tests {
    use super::*;
    use dtdinfer_automata::glushkov::soa_of_sore;
    use dtdinfer_automata::nfa::regex_matches;
    use dtdinfer_automata::soa::Soa;
    use dtdinfer_regex::alphabet::Alphabet;
    use dtdinfer_regex::parser::parse;

    #[test]
    fn samples_are_members() {
        let mut al = Alphabet::new();
        let r = parse("((b? (a|c))+ d)+ e", &mut al).unwrap();
        for w in generate_sample(&r, 100, 1) {
            assert!(regex_matches(&r, &w));
        }
    }

    #[test]
    fn large_sample_is_representative() {
        let mut al = Alphabet::new();
        let r = parse("a? (b | c)+ d*", &mut al).unwrap();
        let words = generate_sample(&r, 60, 7);
        let learned = Soa::learn(&words);
        let glushkov = soa_of_sore(&r).unwrap();
        assert_eq!(learned, glushkov);
    }

    #[test]
    fn deterministic_by_seed() {
        let mut al = Alphabet::new();
        let r = parse("(a | b)+ c", &mut al).unwrap();
        assert_eq!(generate_sample(&r, 50, 3), generate_sample(&r, 50, 3));
        assert_ne!(generate_sample(&r, 50, 3), generate_sample(&r, 50, 4));
    }

    #[test]
    fn exact_size() {
        let mut al = Alphabet::new();
        let r = parse("(a | b)+ c", &mut al).unwrap();
        assert_eq!(generate_sample(&r, 17, 1).len(), 17);
    }
}
