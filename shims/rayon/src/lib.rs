//! Offline shim for `rayon`.
//!
//! Exposes the parallel-iterator entry points the workspace uses
//! (`par_chunks_mut`, `par_iter`, `par_iter_mut`, `into_par_iter`) as plain
//! sequential `std` iterators, by design: no thread pool, everything runs
//! on the calling thread. The *interface* is preserved so the numeric
//! kernels keep their data-parallel structure and a real pool can be
//! swapped back in.

pub mod prelude {
    /// `slice.par_chunks_mut(n)` -> sequential `chunks_mut(n)`.
    pub trait ParallelSliceMut<T> {
        fn par_chunks_mut(&mut self, chunk_size: usize) -> std::slice::ChunksMut<'_, T>;
    }

    impl<T> ParallelSliceMut<T> for [T] {
        fn par_chunks_mut(&mut self, chunk_size: usize) -> std::slice::ChunksMut<'_, T> {
            self.chunks_mut(chunk_size)
        }
    }

    /// `slice.par_chunks(n)` -> sequential `chunks(n)`.
    pub trait ParallelSlice<T> {
        fn par_chunks(&self, chunk_size: usize) -> std::slice::Chunks<'_, T>;
    }

    impl<T> ParallelSlice<T> for [T] {
        fn par_chunks(&self, chunk_size: usize) -> std::slice::Chunks<'_, T> {
            self.chunks(chunk_size)
        }
    }

    /// `collection.into_par_iter()` -> sequential `into_iter()`.
    pub trait IntoParallelIterator: IntoIterator + Sized {
        fn into_par_iter(self) -> Self::IntoIter {
            self.into_iter()
        }
    }

    impl<I: IntoIterator + Sized> IntoParallelIterator for I {}

    /// `collection.par_iter()` / `par_iter_mut()` -> sequential borrows.
    pub trait IntoParallelRefIterator<'a> {
        type Iter: Iterator;
        fn par_iter(&'a self) -> Self::Iter;
    }

    impl<'a, T: 'a> IntoParallelRefIterator<'a> for [T] {
        type Iter = std::slice::Iter<'a, T>;
        fn par_iter(&'a self) -> Self::Iter {
            self.iter()
        }
    }

    impl<'a, T: 'a> IntoParallelRefIterator<'a> for Vec<T> {
        type Iter = std::slice::Iter<'a, T>;
        fn par_iter(&'a self) -> Self::Iter {
            self.iter()
        }
    }

    pub trait IntoParallelRefMutIterator<'a> {
        type Iter: Iterator;
        fn par_iter_mut(&'a mut self) -> Self::Iter;
    }

    impl<'a, T: 'a> IntoParallelRefMutIterator<'a> for [T] {
        type Iter = std::slice::IterMut<'a, T>;
        fn par_iter_mut(&'a mut self) -> Self::Iter {
            self.iter_mut()
        }
    }

    impl<'a, T: 'a> IntoParallelRefMutIterator<'a> for Vec<T> {
        type Iter = std::slice::IterMut<'a, T>;
        fn par_iter_mut(&'a mut self) -> Self::Iter {
            self.iter_mut()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::prelude::*;

    #[test]
    fn par_chunks_mut_matches_chunks_mut() {
        let mut data = vec![0u32; 10];
        data.par_chunks_mut(3).enumerate().for_each(|(i, chunk)| {
            for v in chunk {
                *v = i as u32;
            }
        });
        assert_eq!(data, [0, 0, 0, 1, 1, 1, 2, 2, 2, 3]);
    }

    #[test]
    fn into_par_iter_collects_in_order() {
        let squares: Vec<usize> = (0..6usize).into_par_iter().map(|i| i * i).collect();
        assert_eq!(squares, [0, 1, 4, 9, 16, 25]);
    }
}
