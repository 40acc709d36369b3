//! ASSIGN/SELECT — a fused run of both, one tuple program per tuple.

use super::eval::{NewFields, TupleProgram};
use super::{BoxWriter, FrameWriter, OutBuffer};
use crate::error::Result;
use crate::frame::Frame;

/// The ASSIGN and SELECT operators of the paper's plans (§3.2), fused: a
/// run of consecutive ASSIGN steps (each adds the value of a scalar
/// expression as a new field) and SELECT steps (each drops the tuples its
/// predicate rejects) evaluated by one [`TupleProgram`]. A tuple the
/// program keeps leaves as `input ++ assigned fields`; nothing is written
/// for a dropped one. A lone ASSIGN or SELECT is a run of one step.
pub struct FusedOp {
    name: &'static str,
    program: Box<dyn TupleProgram>,
    fields: NewFields,
    out: OutBuffer,
}

impl FusedOp {
    /// `name` labels the operator in profiles (`ASSIGN`, `SELECT`, …).
    pub fn new(
        name: &'static str,
        program: Box<dyn TupleProgram>,
        frame_size: usize,
        out: BoxWriter,
    ) -> Self {
        FusedOp {
            name,
            program,
            fields: NewFields::default(),
            out: OutBuffer::new(frame_size, out),
        }
    }
}

impl FrameWriter for FusedOp {
    fn name(&self) -> &'static str {
        self.name
    }

    fn open(&mut self) -> Result<()> {
        self.out.open()
    }

    fn next_frame(&mut self, frame: &Frame) -> Result<()> {
        for t in frame.tuples() {
            self.fields.clear();
            if !self.program.eval(&t, &mut self.fields)? {
                continue;
            }
            if self.fields.is_empty() {
                self.out.push_tuple(&t)?;
            } else {
                self.out.push_extended(&t, self.fields.iter())?;
            }
        }
        Ok(())
    }

    fn close(&mut self) -> Result<()> {
        self.out.close()
    }
}

#[cfg(test)]
mod tests {
    use super::super::testutil::{feed, CaptureWriter};
    use super::*;
    use crate::frame::TupleRef;
    use jdm::binary::{write_item, ItemRef};
    use jdm::{Item, Number};

    /// ASSIGN: result = first field's "k" member (null when missing).
    struct GetK;
    impl TupleProgram for GetK {
        fn eval(&mut self, tuple: &TupleRef<'_>, fields: &mut NewFields) -> Result<bool> {
            let r = ItemRef::new(tuple.field(0)).unwrap();
            fields.push(|out| match r.get_key("k") {
                Some(v) => out.extend_from_slice(v.bytes()),
                None => write_item(&Item::Null, out),
            });
            Ok(true)
        }
    }

    /// SELECT: keep tuples whose first field is a number > 5.
    struct GtFive;
    impl TupleProgram for GtFive {
        fn eval(&mut self, tuple: &TupleRef<'_>, _: &mut NewFields) -> Result<bool> {
            Ok(ItemRef::new(tuple.field(0))
                .ok()
                .and_then(|r| r.as_number())
                .map(|n| n.num_cmp(Number::Int(5)) == std::cmp::Ordering::Greater)
                .unwrap_or(false))
        }
    }

    #[test]
    fn assign_appends_field() {
        let cap = CaptureWriter::new();
        let mut op = FusedOp::new("ASSIGN", Box::new(GetK), 1024, Box::new(cap.clone()));
        let rows = vec![
            vec![Item::Object(vec![("k".into(), Item::int(7))])],
            vec![Item::Object(vec![("x".into(), Item::int(1))])],
        ];
        feed(&mut op, &rows);
        let got = cap.take();
        assert_eq!(got.len(), 2);
        assert_eq!(got[0], vec![rows[0][0].clone(), Item::int(7)]);
        assert_eq!(got[1], vec![rows[1][0].clone(), Item::Null]);
        assert!(*cap.closed.lock().unwrap());
    }

    #[test]
    fn select_filters() {
        let cap = CaptureWriter::new();
        let mut op = FusedOp::new("SELECT", Box::new(GtFive), 1024, Box::new(cap.clone()));
        let rows: Vec<Vec<Item>> = (0..10).map(|i| vec![Item::int(i)]).collect();
        feed(&mut op, &rows);
        let got = cap.take();
        assert_eq!(got.len(), 4); // 6,7,8,9
        assert_eq!(got[0], vec![Item::int(6)]);
    }

    #[test]
    fn select_drops_non_boolean_results() {
        let cap = CaptureWriter::new();
        let mut op = FusedOp::new("SELECT", Box::new(GtFive), 1024, Box::new(cap.clone()));
        feed(&mut op, &[vec![Item::str("not a number")]]);
        assert!(cap.take().is_empty());
    }
}
