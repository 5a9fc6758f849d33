//! Audit records declared once: [`audit!`](crate::audit!) turns one struct
//! declaration into the struct, the sum of its counters, and the
//! `<family>.<field>` instruments [`crate::record`] feeds from it.
//!
//! The pipeline's audit structs (what a window reused, refreshed or
//! quarantined) are public API, and each of their counters also needs an
//! instrument and a key in the bench reports. Declaring the counters
//! through the macro makes the field name the single spelling: the
//! instrument is `<family>.<field>`, and reports write the counters by
//! iterating [`Audit::counters`].
//!
//! ```
//! obs::audit! {
//!     /// What one demo batch did.
//!     #[derive(Debug, Clone, Copy, Default)]
//!     pub struct Batch {
//!         /// Plain fields are carried, never counted.
//!         pub day: i64,
//!     }
//!     counters "demo" {
//!         /// Items processed.
//!         pub items: usize,
//!         /// Whether the batch was retried (counts as 0 or 1).
//!         pub retried: bool,
//!     }
//! }
//! use obs::Audit;
//! let batch = Batch { day: 3, items: 5, retried: true };
//! assert_eq!(Batch::INSTRUMENTS, ["demo.items", "demo.retried"]);
//! assert_eq!(batch.counters().collect::<Vec<_>>(), [("items", 5), ("retried", 1)]);
//! let mut tally = obs::Tally::<Batch>::default();
//! tally.add(&batch);
//! tally.add(&batch);
//! assert_eq!((tally.get("items"), tally.get("retried")), (10, 2));
//! ```

use std::marker::PhantomData;

/// One counter field of an audit record: an unsigned count, or a flag
/// that counts as 0 or 1.
pub trait Count: Copy {
    /// The value as an instrument increment.
    fn count(self) -> u64;
    /// Two records' values summed into one record: counts add, a flag is
    /// set when either record set it ([`Tally`] counts the flags instead).
    fn sum(self, other: Self) -> Self;
}

macro_rules! count_int {
    ($($ty:ty),*) => {$(
        impl Count for $ty {
            #[inline]
            fn count(self) -> u64 {
                self as u64
            }

            #[inline]
            fn sum(self, other: Self) -> Self {
                self + other
            }
        }
    )*};
}

count_int!(usize, u64, u32);

impl Count for bool {
    #[inline]
    fn count(self) -> u64 {
        u64::from(self)
    }

    #[inline]
    fn sum(self, other: Self) -> Self {
        self | other
    }
}

/// A record whose counters were declared with [`audit!`](crate::audit!).
pub trait Audit {
    /// Instrument family: the name prefix of every counter's instrument.
    const FAMILY: &'static str;
    /// The counter fields, in declaration order.
    const FIELDS: &'static [&'static str];
    /// `<family>.<field>` for each of [`Audit::FIELDS`].
    const INSTRUMENTS: &'static [&'static str];

    /// The counter values, in the order of [`Audit::FIELDS`].
    fn values(&self) -> impl Iterator<Item = u64>;

    /// `(field, value)` for each counter, in declaration order.
    fn counters(&self) -> impl Iterator<Item = (&'static str, u64)> {
        Self::FIELDS.iter().copied().zip(self.values())
    }
}

/// Declares an audit record: a struct with plain fields and counter
/// fields, the [`std::ops::AddAssign`] that sums the counters (plain
/// fields keep the left-hand value), and its [`Audit`] impl under the
/// given instrument family. Counter fields must implement [`Count`].
#[macro_export]
macro_rules! audit {
    (
        $(#[$meta:meta])*
        $vis:vis struct $name:ident {
            $( $(#[$plain_meta:meta])* $plain_vis:vis $plain:ident : $plain_ty:ty, )*
        }
        counters $family:literal {
            $( $(#[$field_meta:meta])* $field_vis:vis $field:ident : $field_ty:ty, )+
        }
    ) => {
        $(#[$meta])*
        $vis struct $name {
            $( $(#[$plain_meta])* $plain_vis $plain: $plain_ty, )*
            $( $(#[$field_meta])* $field_vis $field: $field_ty, )+
        }

        impl ::std::ops::AddAssign for $name {
            fn add_assign(&mut self, rhs: Self) {
                $( self.$field = $crate::Count::sum(self.$field, rhs.$field); )+
            }
        }

        impl $crate::Audit for $name {
            const FAMILY: &'static str = $family;
            const FIELDS: &'static [&'static str] = &[$(stringify!($field)),+];
            const INSTRUMENTS: &'static [&'static str] =
                &[$(concat!($family, ".", stringify!($field))),+];

            fn values(&self) -> impl Iterator<Item = u64> {
                [$($crate::Count::count(self.$field)),+].into_iter()
            }
        }
    };
}

/// Running sums of many audit records' counters, each kept as a `u64` so
/// a flag sums to how many records set it.
#[derive(Debug, Clone)]
pub struct Tally<A> {
    sums: Vec<u64>,
    of: PhantomData<fn(&A)>,
}

impl<A: Audit> Default for Tally<A> {
    fn default() -> Self {
        Self {
            sums: vec![0; A::FIELDS.len()],
            of: PhantomData,
        }
    }
}

impl<A: Audit> Tally<A> {
    /// Adds one record's counters.
    pub fn add(&mut self, record: &A) {
        for (sum, value) in self.sums.iter_mut().zip(record.values()) {
            *sum += value;
        }
    }

    /// The sum of counter `field`.
    ///
    /// # Panics
    ///
    /// When `A` declares no counter named `field`.
    pub fn get(&self, field: &str) -> u64 {
        let at = A::FIELDS
            .iter()
            .position(|&f| f == field)
            .unwrap_or_else(|| panic!("{} has no counter {field:?}", A::FAMILY));
        self.sums[at]
    }
}

impl<A: Audit> Audit for Tally<A> {
    const FAMILY: &'static str = A::FAMILY;
    const FIELDS: &'static [&'static str] = A::FIELDS;
    const INSTRUMENTS: &'static [&'static str] = A::INSTRUMENTS;

    fn values(&self) -> impl Iterator<Item = u64> {
        self.sums.iter().copied()
    }
}
