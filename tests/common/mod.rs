//! Helpers shared by the root integration tests.

pub mod eager;
