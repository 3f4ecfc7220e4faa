//! Index scan operator.

use std::sync::Arc;

use sjos_pattern::{NodeSet, PnId};
use sjos_storage::index::RecordCursor;

use crate::error::EngineError;
use crate::metrics::ExecMetrics;
use crate::ops::Operator;
use crate::tuple::{Schema, TupleBatch, BATCH_ROWS};

/// Streams one pattern node's binding list in document order,
/// optionally filtering by a value digest (equality predicates are
/// pushed into the scan, as the paper assumes every node predicate is
/// index-evaluable). The underlying record cursor runs over a tag's
/// index list for named nodes or over the heap file for wildcard
/// nodes.
///
/// Each batch is filled by [`RecordCursor::fill`], which decodes a
/// page's records in one loop straight into the batch's column; the
/// two metric counters (`scanned_records`, `produced_tuples`) are
/// accumulated locally and flushed with one atomic add each per batch.
/// A storage fault in the underlying scan (a page read that survived
/// the buffer pool's retries) surfaces as [`EngineError::Storage`];
/// the counters for records read before the fault are still flushed,
/// so partial metrics stay honest.
pub struct IndexScanOp<'a> {
    cursor: RecordCursor<'a>,
    schema: Arc<Schema>,
    /// Keep-only digest (from [`sjos_storage::record::value_digest`]).
    value_filter: Option<u64>,
    metrics: Arc<ExecMetrics>,
    batch_rows: usize,
}

impl<'a> IndexScanOp<'a> {
    /// Scan `pnode`'s list via `cursor`.
    pub fn new(
        pnode: PnId,
        cursor: RecordCursor<'a>,
        value_filter: Option<u64>,
        metrics: Arc<ExecMetrics>,
    ) -> Self {
        IndexScanOp {
            cursor,
            schema: Arc::new(Schema::singleton(pnode)),
            value_filter,
            metrics,
            batch_rows: BATCH_ROWS,
        }
    }

    /// Override the batch granularity (default [`BATCH_ROWS`]).
    #[must_use]
    pub fn with_batch_rows(mut self, batch_rows: usize) -> Self {
        self.batch_rows = batch_rows.max(1);
        self
    }

    /// Keep regions only if the scanned node is in `wide` (default:
    /// wide).
    #[must_use]
    pub fn narrowed(mut self, wide: NodeSet) -> Self {
        self.schema = Arc::new(self.schema.narrowed(wide));
        self
    }
}

impl Operator for IndexScanOp<'_> {
    fn schema(&self) -> &Arc<Schema> {
        &self.schema
    }

    fn ordered_col(&self) -> usize {
        0
    }

    fn next_batch(&mut self) -> Result<Option<TupleBatch>, EngineError> {
        let mut batch = TupleBatch::with_capacity(self.schema.clone(), self.batch_rows);
        let mut scanned = 0u64;
        let column = batch.column_mut(0);
        let filter = self.value_filter;
        let read = self.cursor.fill(self.batch_rows, &mut scanned, |rec| {
            let keep = filter.is_none_or(|want| rec.value_hash == want);
            if keep {
                column.push(rec.node, rec.region);
            }
            keep
        });
        if scanned > 0 {
            ExecMetrics::add(&self.metrics.scanned_records, scanned);
        }
        read.map_err(EngineError::Storage)?;
        if batch.is_empty() {
            return Ok(None);
        }
        ExecMetrics::add(&self.metrics.produced_tuples, batch.len() as u64);
        Ok(Some(batch))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sjos_storage::record::value_digest;
    use sjos_storage::XmlStore;
    use sjos_xml::Document;

    fn store() -> XmlStore {
        let doc = Document::parse("<r><e><n>a</n></e><e><n>b</n></e><e><n>a</n></e></r>").unwrap();
        XmlStore::load(doc)
    }

    #[test]
    fn scan_streams_in_document_order() {
        let st = store();
        let tag = st.document().tag("n").unwrap();
        let m = ExecMetrics::new();
        let mut op = IndexScanOp::new(PnId(0), st.scan_tag(tag), None, Arc::clone(&m));
        let mut starts = vec![];
        while let Some(b) = op.next_batch().unwrap() {
            assert!(!b.is_empty(), "batches are never empty");
            assert!(b.is_sorted_by(0));
            starts.extend(b.regions(0).iter().map(|r| r.start));
        }
        assert_eq!(starts.len(), 3);
        assert!(starts.windows(2).all(|w| w[0] < w[1]));
        assert_eq!(m.snapshot().scanned_records, 3);
        assert_eq!(m.snapshot().produced_tuples, 3);
    }

    #[test]
    fn value_filter_drops_non_matching() {
        let st = store();
        let tag = st.document().tag("n").unwrap();
        let m = ExecMetrics::new();
        let mut op =
            IndexScanOp::new(PnId(0), st.scan_tag(tag), Some(value_digest("a")), Arc::clone(&m));
        let mut n = 0;
        while let Some(b) = op.next_batch().unwrap() {
            n += b.len();
        }
        assert_eq!(n, 2);
        let snap = m.snapshot();
        assert_eq!(snap.scanned_records, 3, "filter still reads the list");
        assert_eq!(snap.produced_tuples, 2);
    }

    #[test]
    fn small_batches_partition_the_stream() {
        let st = store();
        let tag = st.document().tag("n").unwrap();
        let m = ExecMetrics::new();
        let mut op =
            IndexScanOp::new(PnId(0), st.scan_tag(tag), None, Arc::clone(&m)).with_batch_rows(2);
        let sizes: Vec<usize> =
            std::iter::from_fn(|| op.next_batch().unwrap().map(|b| b.len())).collect();
        assert_eq!(sizes, vec![2, 1]);
        assert_eq!(m.snapshot().produced_tuples, 3);
    }

    #[test]
    fn storage_fault_surfaces_as_typed_error() {
        use sjos_storage::record::RECORDS_PER_PAGE;
        use sjos_storage::{FaultPlan, StoreConfig};
        // One tag whose list spans two pages: the first page is read
        // clean and stays cached, then every physical read turns into
        // sticky corruption, so the second page fails past the pool's
        // retries.
        let mut xml = String::from("<r>");
        for _ in 0..RECORDS_PER_PAGE + 10 {
            xml.push_str("<n/>");
        }
        xml.push_str("</r>");
        let doc = Document::parse(&xml).unwrap();
        let st = XmlStore::load_faulty(doc, StoreConfig::default(), FaultPlan::none());
        let tag = st.document().tag("n").unwrap();
        assert_eq!(st.index().pages(tag).len(), 2);
        st.scan_tag(tag).next().unwrap().unwrap();
        st.fault().unwrap().set_plan(FaultPlan { sticky_corrupt: 1.0, ..FaultPlan::none() });
        let m = ExecMetrics::new();
        let mut op =
            IndexScanOp::new(PnId(0), st.scan_tag(tag), None, Arc::clone(&m)).with_batch_rows(1024);
        let err = op.next_batch().unwrap_err();
        assert!(matches!(err, EngineError::Storage(_)), "{err:?}");
        assert_eq!(
            m.snapshot().scanned_records,
            RECORDS_PER_PAGE as u64,
            "pre-fault records still counted"
        );
    }
}
