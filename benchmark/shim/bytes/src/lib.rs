//! Offline stand-in for `bytes`: declared by `sixdust-wire`, never imported.
