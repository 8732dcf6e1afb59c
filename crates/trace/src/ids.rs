//! Datum identifiers.

/// Dense identifier of one datum (one array element in the paper's model).
///
/// Data ids are dense (`0..num_data`) so schedulers can keep per-datum state
/// in flat vectors.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct DataId(pub u32);

impl DataId {
    /// The raw index, usable directly into per-datum `Vec`s.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }

    /// Checked conversion from a container index. Million-datum traces fit
    /// comfortably (`u32::MAX` ≈ 4.3 G data); anything wider is a caller
    /// bug surfaced as a typed error instead of a silent `as u32` wrap.
    #[inline]
    pub fn try_from_index(index: usize) -> Result<DataId, IdOverflow> {
        u32::try_from(index)
            .map(DataId)
            .map_err(|_| IdOverflow { index })
    }
}

/// A container index did not fit the dense 32-bit id space.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct IdOverflow {
    /// The offending index.
    pub index: usize,
}

impl core::fmt::Display for IdOverflow {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        write!(
            f,
            "index {} overflows the 32-bit datum id space",
            self.index
        )
    }
}

impl std::error::Error for IdOverflow {}

impl core::fmt::Display for DataId {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        write!(f, "D{}", self.0)
    }
}

/// Map a 2-D data array element `(row, col)` of a `rows × cols` matrix to
/// its dense [`DataId`] (row-major). The workload kernels all address
/// matrix elements this way.
#[inline]
pub fn matrix_elem(rows: u32, cols: u32, row: u32, col: u32) -> DataId {
    debug_assert!(row < rows && col < cols);
    let _ = rows;
    DataId(row * cols + col)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_and_index() {
        assert_eq!(DataId(7).to_string(), "D7");
        assert_eq!(DataId(7).index(), 7);
    }

    #[test]
    fn checked_index_conversion() {
        assert_eq!(DataId::try_from_index(70_000), Ok(DataId(70_000)));
        assert_eq!(
            DataId::try_from_index(u32::MAX as usize),
            Ok(DataId(u32::MAX))
        );
        let err = DataId::try_from_index(u32::MAX as usize + 1).unwrap_err();
        assert_eq!(err.index, u32::MAX as usize + 1);
        assert!(err.to_string().contains("overflows"));
    }

    #[test]
    fn matrix_layout_row_major() {
        assert_eq!(matrix_elem(4, 4, 0, 0), DataId(0));
        assert_eq!(matrix_elem(4, 4, 0, 3), DataId(3));
        assert_eq!(matrix_elem(4, 4, 1, 0), DataId(4));
        assert_eq!(matrix_elem(4, 4, 3, 3), DataId(15));
        assert_eq!(matrix_elem(2, 5, 1, 2), DataId(7));
    }
}
