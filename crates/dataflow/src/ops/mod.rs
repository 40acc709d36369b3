//! Physical operators.
//!
//! Operators are **push-based**, as in Hyracks: a producer calls
//! [`FrameWriter::open`], pushes frames with [`FrameWriter::next_frame`],
//! and finishes with [`FrameWriter::close`]. Operators own their downstream
//! writer, so a fused pipeline is just a chain of boxed writers.
//!
//! The runtime is data-agnostic: everything language-specific (JSONiq
//! expressions, aggregation functions, scan sources) arrives as trait
//! objects defined in [`eval`].

pub mod aggregate;
pub mod eval;
pub mod fused;
pub mod groupby;
pub mod join;
pub mod project;
pub mod sink;
pub mod sort;
pub mod source;
pub mod unnest;

pub use aggregate::AggregateOp;
pub use eval::{
    Aggregator, AggregatorFactory, NewFields, ScalarEvaluator, ScanSource, TupleEmitter,
    TupleProgram, UnnestEvaluator,
};
pub use fused::FusedOp;
pub use groupby::{HashGroupByOp, MaterializingGroupByOp};
pub use join::HashJoinOp;
pub use project::ProjectOp;
pub use sink::CollectorWriter;
pub use sort::SortOp;
pub use source::run_source;
pub use unnest::UnnestOp;

use crate::error::Result;
use crate::frame::{Frame, FrameAppender, TupleRef};

/// The push-based operator interface (Hyracks' `IFrameWriter`).
pub trait FrameWriter: Send {
    /// Called once before any frames.
    fn open(&mut self) -> Result<()>;
    /// Push one frame of tuples.
    fn next_frame(&mut self, frame: &Frame) -> Result<()>;
    /// Called once after the last frame; operators flush pending output
    /// and close their downstream here.
    fn close(&mut self) -> Result<()>;
    /// Operator name shown in profiles and EXPLAIN ANALYZE output.
    fn name(&self) -> &'static str {
        "OP"
    }
}

/// Boxed writer alias used throughout the job layer.
pub type BoxWriter = Box<dyn FrameWriter>;

/// Buffers output tuples into frames and pushes full frames downstream.
/// Every tuple-producing operator embeds one of these.
pub struct OutBuffer {
    app: FrameAppender,
    out: BoxWriter,
}

impl OutBuffer {
    /// New buffer producing frames of `frame_size` bytes into `out`.
    pub fn new(frame_size: usize, out: BoxWriter) -> Self {
        OutBuffer {
            app: FrameAppender::new(frame_size),
            out,
        }
    }

    /// Open the downstream writer.
    pub fn open(&mut self) -> Result<()> {
        self.out.open()
    }

    /// Append a tuple built from field slices, flushing as needed.
    pub fn push_fields(&mut self, fields: &[&[u8]]) -> Result<()> {
        loop {
            if self.app.append(fields)? {
                return Ok(());
            }
            self.flush()?;
        }
    }

    /// Append a copy of an existing tuple.
    pub fn push_tuple(&mut self, t: &TupleRef<'_>) -> Result<()> {
        loop {
            if self.app.append_tuple(t)? {
                return Ok(());
            }
            self.flush()?;
        }
    }

    /// Append a tuple made of an existing tuple's fields plus extras.
    /// This is the common ASSIGN/UNNEST output shape: input ++ new fields.
    pub fn push_extended<'e, I>(&mut self, base: &TupleRef<'_>, extra: I) -> Result<()>
    where
        I: ExactSizeIterator<Item = &'e [u8]> + Clone,
    {
        loop {
            if self.app.append_extended(base, extra.clone())? {
                return Ok(());
            }
            self.flush()?;
        }
    }

    /// Send any buffered tuples downstream now.
    pub fn flush(&mut self) -> Result<()> {
        if let Some(frame) = self.app.take_frame() {
            self.out.next_frame(&frame)?;
        }
        Ok(())
    }

    /// Flush and close downstream.
    pub fn close(&mut self) -> Result<()> {
        self.flush()?;
        self.out.close()
    }
}

/// A writer that drops everything (tests, EXPLAIN-only runs).
pub struct NullWriter;

impl FrameWriter for NullWriter {
    fn open(&mut self) -> Result<()> {
        Ok(())
    }
    fn next_frame(&mut self, _frame: &Frame) -> Result<()> {
        Ok(())
    }
    fn close(&mut self) -> Result<()> {
        Ok(())
    }
    fn name(&self) -> &'static str {
        "NULL"
    }
}

#[cfg(test)]
pub(crate) mod testutil {
    //! Shared helpers for operator unit tests.

    use super::*;
    use jdm::binary::to_bytes;
    use jdm::Item;
    use std::sync::{Arc, Mutex};

    /// Writer that records decoded rows for assertions.
    #[derive(Clone, Default)]
    pub struct CaptureWriter {
        pub rows: Arc<Mutex<Vec<Vec<Item>>>>,
        pub closed: Arc<Mutex<bool>>,
    }

    impl CaptureWriter {
        pub fn new() -> Self {
            Self::default()
        }

        pub fn take(&self) -> Vec<Vec<Item>> {
            self.rows.lock().unwrap().clone()
        }
    }

    impl FrameWriter for CaptureWriter {
        fn open(&mut self) -> Result<()> {
            Ok(())
        }
        fn next_frame(&mut self, frame: &Frame) -> Result<()> {
            let mut rows = self.rows.lock().unwrap();
            for t in frame.tuples() {
                let row: Vec<Item> = t
                    .fields()
                    .map(|f| jdm::binary::ItemRef::new(f).unwrap().to_item().unwrap())
                    .collect();
                rows.push(row);
            }
            Ok(())
        }
        fn close(&mut self) -> Result<()> {
            *self.closed.lock().unwrap() = true;
            Ok(())
        }
    }

    /// Encode rows of items into frames and feed them through `op`.
    pub fn feed(op: &mut dyn FrameWriter, rows: &[Vec<Item>]) {
        let encoded: Vec<Vec<Vec<u8>>> = rows
            .iter()
            .map(|row| row.iter().map(to_bytes).collect())
            .collect();
        let frames = crate::frame::frames_from_rows(&encoded, 4096);
        op.open().unwrap();
        for f in &frames {
            op.next_frame(&f.clone()).unwrap();
        }
        op.close().unwrap();
    }
}
