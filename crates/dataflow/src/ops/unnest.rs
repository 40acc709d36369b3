//! UNNEST — one output tuple per item produced by an unnesting expression.

use super::eval::UnnestEvaluator;
use super::{BoxWriter, FrameWriter, OutBuffer};
use crate::error::Result;
use crate::frame::Frame;

/// The UNNEST operator (paper §3.2): "executes an unnesting expression for
/// each tuple to create a stream of output tuples per input".
///
/// After the path-expression rules, the unnesting expression is
/// `keys-or-members` itself (Fig. 4) rather than `iterate` over a
/// pre-built sequence (Fig. 3) — both arrive here as [`UnnestEvaluator`]s;
/// the difference is purely in what the evaluator does.
pub struct UnnestOp {
    eval: Box<dyn UnnestEvaluator>,
    out: OutBuffer,
}

impl UnnestOp {
    pub fn new(eval: Box<dyn UnnestEvaluator>, frame_size: usize, out: BoxWriter) -> Self {
        UnnestOp {
            eval,
            out: OutBuffer::new(frame_size, out),
        }
    }
}

impl FrameWriter for UnnestOp {
    fn name(&self) -> &'static str {
        "UNNEST"
    }

    fn open(&mut self) -> Result<()> {
        self.out.open()
    }

    fn next_frame(&mut self, frame: &Frame) -> Result<()> {
        for t in frame.tuples() {
            let out = &mut self.out;
            self.eval
                .eval(&t, &mut |item| out.push_extended(&t, std::iter::once(item)))?;
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
    use jdm::binary::ItemRef;
    use jdm::Item;

    /// Unnest the members of the array in field 0.
    struct Members;
    impl UnnestEvaluator for Members {
        fn eval(
            &mut self,
            tuple: &TupleRef<'_>,
            emit: &mut dyn FnMut(&[u8]) -> Result<()>,
        ) -> Result<()> {
            let r = ItemRef::new(tuple.field(0)).unwrap();
            for m in r.members() {
                emit(m.bytes())?;
            }
            Ok(())
        }
    }

    #[test]
    fn unnest_fans_out() {
        let cap = CaptureWriter::new();
        let mut op = UnnestOp::new(Box::new(Members), 1024, Box::new(cap.clone()));
        let arr = Item::Array(vec![Item::int(1), Item::int(2), Item::int(3)]);
        feed(&mut op, &[vec![arr.clone()]]);
        let got = cap.take();
        assert_eq!(got.len(), 3);
        assert_eq!(got[0], vec![arr.clone(), Item::int(1)]);
        assert_eq!(got[2], vec![arr, Item::int(3)]);
    }

    #[test]
    fn unnest_empty_input_produces_nothing() {
        let cap = CaptureWriter::new();
        let mut op = UnnestOp::new(Box::new(Members), 1024, Box::new(cap.clone()));
        feed(&mut op, &[vec![Item::Array(vec![])]]);
        assert!(cap.take().is_empty());
    }
}
