//! LX06 fixture: `==` / `!=` on float expressions.

pub fn bad_eq(x: f64) -> bool {
    x == 0.5 // VIOLATION LX06
}

pub fn bad_ne(x: f64) -> bool {
    x != 1.0 // VIOLATION LX06
}

pub fn bad_const_compare(x: f64) -> bool {
    x == f64::INFINITY // VIOLATION LX06
}

pub fn good_tolerance(x: f64) -> bool {
    (x - 0.5).abs() < 1e-9
}

pub fn good_int_compare(n: usize) -> bool {
    n == 3
}

pub fn good_nested_tuple_index(p: ((u8, u8), u8), q: u8) -> bool {
    p.0.1 == q
}

pub fn suppressed(x: f64) -> bool {
    // lexlint: allow(LX06): exact-zero divisor guard
    x != 0.0
}

pub fn allowlisted_via_config(x: f64) -> bool {
    x == 2.5 // vetted-lx06-site
}
