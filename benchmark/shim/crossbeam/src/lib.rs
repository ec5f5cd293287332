//! Offline stand-in for `crossbeam`: `thread::scope` with crossbeam's
//! signatures, run by `std::thread::scope` on real OS threads.

pub mod thread {
    use std::any::Any;

    type Panic = Box<dyn Any + Send + 'static>;

    pub struct Scope<'scope, 'env: 'scope> {
        inner: &'scope std::thread::Scope<'scope, 'env>,
    }

    pub struct ScopedJoinHandle<'scope, T>(std::thread::ScopedJoinHandle<'scope, T>);

    impl<T> ScopedJoinHandle<'_, T> {
        pub fn join(self) -> Result<T, Panic> {
            self.0.join()
        }
    }

    impl<'scope, 'env> Scope<'scope, 'env> {
        pub fn spawn<F, T>(&self, f: F) -> ScopedJoinHandle<'scope, T>
        where
            F: FnOnce(&Scope<'scope, 'env>) -> T + Send + 'scope,
            T: Send + 'scope,
        {
            let inner = self.inner;
            ScopedJoinHandle(inner.spawn(move || f(&Scope { inner })))
        }
    }

    /// A panic in a thread nobody joined propagates as a panic, as
    /// `std::thread::scope` does, where crossbeam would return `Err`.
    pub fn scope<'env, F, R>(f: F) -> Result<R, Panic>
    where
        F: for<'scope> FnOnce(&Scope<'scope, 'env>) -> R,
    {
        Ok(std::thread::scope(|s| f(&Scope { inner: s })))
    }
}
