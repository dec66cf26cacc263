//! Incremental computation (§9), pinned by tests: the counted word bag is
//! every learner's whole memory, so a service that folds words into one
//! bag as they arrive, and learns from the bag whenever it is asked,
//! answers with the model a batch run over all the words gives.

#[cfg(test)]
mod tests {
    use crate::crx::{crx, crx_counted};
    use crate::idtd::{idtd, idtd_from_words};
    use crate::model::InferredModel;
    use dtdinfer_automata::soa::Soa;
    use dtdinfer_regex::alphabet::{Alphabet, Word};
    use dtdinfer_regex::multiset::WordBag;

    fn words(al: &mut Alphabet, ws: &[&str]) -> Vec<Word> {
        ws.iter().map(|w| al.word_from_chars(w)).collect()
    }

    fn bag_of(ws: &[Word]) -> WordBag {
        let mut bag = WordBag::new();
        for w in ws {
            bag.insert_ref(w);
        }
        bag
    }

    /// The SORE learned from a bag: iDTD over the bag's SOA.
    fn sore(bag: &WordBag) -> InferredModel {
        idtd(&Soa::learn(bag.words()))
    }

    /// The CHARE learned from a bag: CRX over its counted words.
    fn chare(bag: &WordBag) -> InferredModel {
        crx_counted(bag.iter())
    }

    #[test]
    fn incremental_sore_equals_batch() {
        let mut al = Alphabet::new();
        let ws = words(&mut al, &["bacacdacde", "cbacdbacde", "abccaadcde"]);
        let batch = idtd_from_words(&ws);
        let mut bag = WordBag::new();
        // Absorb one at a time, inferring between arrivals like a live
        // service would.
        for w in &ws {
            bag.insert_ref(w);
            let _ = sore(&bag);
        }
        assert_eq!(sore(&bag), batch);
    }

    #[test]
    fn incremental_chare_equals_batch() {
        let mut al = Alphabet::new();
        let ws = words(&mut al, &["abccde", "cccad", "bfegg", "bfehi"]);
        let batch = crx(&ws);
        let mut bag = WordBag::new();
        for w in &ws {
            bag.insert_ref(w);
            let _ = chare(&bag);
        }
        assert_eq!(chare(&bag), batch);
    }

    #[test]
    fn sore_refines_as_data_arrives() {
        let mut al = Alphabet::new();
        let ws = words(&mut al, &["bacacdacde", "cbacdbacde", "abccaadcde"]);
        let mut bag = bag_of(&ws[..1]);
        let first = sore(&bag);
        bag.insert_ref(&ws[1]);
        bag.insert_ref(&ws[2]);
        let last = sore(&bag);
        // Both are inferred models; the final one matches the batch run.
        assert_eq!(last, idtd_from_words(&ws));
        assert!(first.as_regex().is_some());
    }

    #[test]
    fn sharded_merge_equals_sequential() {
        let mut al = Alphabet::new();
        let ws = words(&mut al, &["bacacdacde", "cbacdbacde", "abccaadcde", "bc"]);
        let whole = bag_of(&ws);
        for cut in 0..=ws.len() {
            let mut merged = bag_of(&ws[..cut]);
            merged.merge(&bag_of(&ws[cut..]));
            assert_eq!(merged, whole, "bag cut {cut}");
            assert_eq!(sore(&merged), idtd_from_words(&ws), "sore cut {cut}");
            assert_eq!(chare(&merged), crx(&ws), "chare cut {cut}");
        }
    }

    #[test]
    fn empty_state_degenerate() {
        let empty = WordBag::new();
        assert_eq!(sore(&empty), InferredModel::Empty);
        assert_eq!(chare(&empty), InferredModel::Empty);
    }
}
