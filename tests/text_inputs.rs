//! Every text input the library parses answers `Ok` or `Err` — never a
//! panic. The scheme DSL (`netbw::graph::dsl::parse`) and the trace format
//! (`netbw::trace::parse_trace`, then `Trace::validate` on what it
//! accepts) are fed two kinds of input: strings built from a token
//! alphabet (keywords, arrows, numbers at the u32/u64 edges, size units,
//! comments, newlines and non-ASCII text), and valid documents with a few
//! random edits.

use netbw::graph::dsl;
use netbw::trace::{parse_trace, write_trace, Trace};
use proptest::prelude::*;

/// Pieces the generated inputs are made of.
const TOKENS: &[&str] = &[
    "scheme",
    "node",
    "size",
    "tasks",
    "t0",
    "t1",
    "t2",
    "t18446744073709551616",
    "compute",
    "send",
    "recv",
    "any",
    "barrier",
    "->",
    "-",
    ">",
    ":",
    "a",
    "lbl_9",
    "0",
    "1",
    "2",
    "-1",
    "+3",
    "0.5",
    "-0.0",
    "1e308",
    "1e-320",
    "NaN",
    "inf",
    "4294967295",
    "4294967296",
    "18446744073709551615",
    "18446744073709551616",
    "1048576",
    "1048577",
    "20MB",
    "4MiB",
    "1.5kb",
    "KB",
    "GiB",
    "b",
    "#",
    " ",
    " ",
    " ",
    "\t",
    "\n",
    "\n",
    "\r\n",
    "é",
    "→",
    "漢字",
    "🦀",
    "\u{0}",
    "\u{feff}",
];

/// Concatenates the tokens the indices name.
fn from_tokens(picks: &[usize]) -> String {
    picks.iter().map(|&i| TOKENS[i]).collect()
}

/// Valid scheme documents: the paper-style example, a hand-written one,
/// and the canonical form of a built graph.
fn schemes() -> Vec<String> {
    let mut g = netbw::graph::CommGraph::new();
    g.set_name("built");
    g.add("a", 0u32, 1u32, 1 << 20);
    g.add("b", 2u32, 1u32, 4_000);
    vec![
        "# Fig. 5\nscheme fig5\nnode 6\na: 0 -> 3 20MB\nb: 0 -> 2 size 20MB\n0 -> 1 4MiB\n"
            .to_string(),
        "scheme hot\n1 -> 0 1GB # hot spot\n2 -> 0 1.5kb\nx_1: 3 -> 0 12\n".to_string(),
        dsl::emit(&g),
    ]
}

/// Valid trace documents: a ring and the empty three-task trace.
fn traces() -> Vec<String> {
    let mut ring = Trace::with_tasks(3);
    for r in 0..3usize {
        ring.task_mut(r).compute(0.25);
        ring.task_mut(r).send(((r + 1) % 3) as u32, 1024);
        ring.task_mut(r).send(((r + 1) % 3) as u32, 8);
        ring.task_mut(r).recv_any(1024);
        ring.task_mut(r).recv(((r + 2) % 3) as u32, 8);
        ring.task_mut(r).barrier();
    }
    vec![write_trace(&ring), write_trace(&Trace::with_tasks(3))]
}

/// Applies `edits` to `doc`, working on chars so the result stays valid
/// UTF-8: 0 deletes a char, 1 inserts a token, 2 duplicates a line, 3
/// replaces a char with a token.
fn mutate(doc: &str, edits: &[(u8, usize, usize)]) -> String {
    let mut chars: Vec<char> = doc.chars().collect();
    for &(op, at, token) in edits {
        let at = at % (chars.len() + 1);
        let token = TOKENS[token].chars();
        match op {
            0 if at < chars.len() => {
                chars.remove(at);
            }
            2 => {
                let text: String = chars.iter().collect();
                let lines: Vec<&str> = text.lines().collect();
                if let Some(line) = lines.get(at % lines.len().max(1)) {
                    let mut out = text.clone();
                    out.push('\n');
                    out.push_str(line);
                    chars = out.chars().collect();
                }
            }
            3 if at < chars.len() => {
                chars.splice(at..=at, token);
            }
            _ => {
                chars.splice(at..at, token);
            }
        }
    }
    chars.into_iter().collect()
}

/// Parses `text` both ways; whatever parses is validated or re-emitted.
fn parse_everything(text: &str) {
    if let Ok(g) = dsl::parse(text) {
        dsl::emit(&g);
    }
    if let Ok(trace) = parse_trace(text) {
        let _ = trace.validate();
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(2_000))]

    /// Token soup: every combination of the grammar's pieces is refused or
    /// accepted, never a panic.
    #[test]
    fn token_strings_never_panic_either_parser(
        picks in proptest::collection::vec(0..TOKENS.len(), 0..48),
    ) {
        parse_everything(&from_tokens(&picks));
    }

    /// Valid scheme documents with a few random edits.
    #[test]
    fn mutated_schemes_never_panic_either_parser(
        doc in 0..3usize,
        edits in proptest::collection::vec((0u8..4, 0..400usize, 0..TOKENS.len()), 1..8),
    ) {
        let text = mutate(&schemes()[doc], &edits);
        parse_everything(&text);
    }

    /// Valid trace documents with a few random edits.
    #[test]
    fn mutated_traces_never_panic_either_parser(
        doc in 0..2usize,
        edits in proptest::collection::vec((0u8..4, 0..400usize, 0..TOKENS.len()), 1..8),
    ) {
        let text = mutate(&traces()[doc], &edits);
        parse_everything(&text);
    }
}

#[test]
fn the_unedited_documents_parse() {
    for text in schemes() {
        dsl::parse(&text).unwrap_or_else(|e| panic!("{e}: {text}"));
    }
    for text in traces() {
        let trace = parse_trace(&text).unwrap_or_else(|e| panic!("{e}: {text}"));
        trace.validate().expect("a valid trace");
    }
}
