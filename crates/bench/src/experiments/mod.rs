//! The experiment functions, one per paper artifact.

mod fig10;
mod fig11;
mod fig3;
mod fig8;
mod fig9;
mod hetero;
mod table1;
mod table2;
mod table3;

pub use fig10::{fig10, Fig10Row};
pub use fig11::{fig11, Fig11Row};
pub use fig3::{fig3, Fig3Row};
pub use fig8::{fig8, Fig8Row};
pub use fig9::{fig9, Fig9Row};
pub use hetero::{hetero, HeteroRow};
pub use table1::{table1, Table1Row};
pub use table2::{table2, table2_row, Table2Row};
pub use table3::{table3, Table3Outcome};
