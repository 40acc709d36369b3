//! From-scratch JSON parsing: an event (SAX-style) layer and a tree builder.
//!
//! The tree builder consumes events. The path-projecting parser
//! ([`crate::project`]) does not: it navigates the structural index and
//! writes what it emits straight from the tape, so the event parser is the
//! independent oracle its differential tests compare against, and the
//! parser for whole documents (`parse_item`).

mod event;
mod tree;

pub use event::{Event, EventParser, MAX_DEPTH};
pub use tree::{parse_item, parse_many, TreeBuilder};

pub(crate) use event::{number_at, parse_string_at, scan_number_at};
