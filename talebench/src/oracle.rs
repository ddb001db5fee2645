//! The answer oracle: every answer the benchmark receives is compared
//! field by field — graph id, matched nodes and edges, score bits and
//! node pairs with their quality bits — against a reference computed
//! at set-up by another execution path.

use tale::QueryMatch;
use tale_server::wire::WireMatch;

/// One ranked hit in comparable form.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Hit {
    /// Matched database graph.
    pub graph: u32,
    /// Matched query nodes.
    pub nodes: u64,
    /// Preserved query edges.
    pub edges: u64,
    /// IEEE-754 bits of the score.
    pub score_bits: u64,
    /// `(query node, target node, quality bits)` in commit order.
    pub pairs: Vec<(u32, u32, u64)>,
}

/// A ranked answer to one query.
pub type Answer = Vec<Hit>;

fn hit_of(w: &WireMatch) -> Hit {
    Hit {
        graph: w.graph,
        nodes: w.matched_nodes,
        edges: w.matched_edges,
        score_bits: w.score_bits,
        pairs: w.pairs.iter().map(|p| (p.q, p.t, p.quality_bits)).collect(),
    }
}

/// An answer as it crossed the wire.
pub fn from_wire(ms: &[WireMatch]) -> Answer {
    ms.iter().map(hit_of).collect()
}

/// An in-process answer, in the same form.
pub fn from_matches(ms: &[QueryMatch]) -> Answer {
    ms.iter()
        .map(|m| hit_of(&WireMatch::from_match(m)))
        .collect()
}

/// `Ok` when `got` equals `expected` bit for bit; otherwise the first
/// difference.
pub fn check(expected: &Answer, got: &Answer) -> Result<(), String> {
    if expected.len() != got.len() {
        return Err(format!("{} hits, expected {}", got.len(), expected.len()));
    }
    for (rank, (e, g)) in expected.iter().zip(got).enumerate() {
        if e != g {
            return Err(format!(
                "rank {rank}: got graph {} score {:#x} ({} nodes, {} edges), \
                 expected graph {} score {:#x} ({} nodes, {} edges)",
                g.graph, g.score_bits, g.nodes, g.edges, e.graph, e.score_bits, e.nodes, e.edges
            ));
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn answer() -> Answer {
        vec![
            Hit {
                graph: 3,
                nodes: 10,
                edges: 12,
                score_bits: 0.75f64.to_bits(),
                pairs: vec![(0, 4, 1.0f64.to_bits()), (1, 5, 0.5f64.to_bits())],
            },
            Hit {
                graph: 7,
                nodes: 4,
                edges: 3,
                score_bits: 0.25f64.to_bits(),
                pairs: vec![(2, 9, 0.25f64.to_bits())],
            },
        ]
    }

    #[test]
    fn identical_answers_pass() {
        assert!(check(&answer(), &answer()).is_ok());
    }

    #[test]
    fn one_bit_score_perturbation_is_rejected() {
        for rank in 0..2 {
            for bit in [0u32, 17, 52, 63] {
                let mut got = answer();
                got[rank].score_bits ^= 1 << bit;
                assert!(check(&answer(), &got).is_err(), "rank {rank} bit {bit}");
            }
        }
    }

    #[test]
    fn pair_quality_graph_and_length_differences_are_rejected() {
        let mut got = answer();
        got[0].pairs[1].2 ^= 1;
        assert!(check(&answer(), &got).is_err());
        let mut got = answer();
        got[1].graph = 8;
        assert!(check(&answer(), &got).is_err());
        let mut got = answer();
        got.pop();
        assert!(check(&answer(), &got).is_err());
        let mut got = answer();
        got.swap(0, 1);
        assert!(check(&answer(), &got).is_err());
    }
}
