//! The Lindblad RK4 loop allocates nothing, with or without a drive: a
//! counting global allocator shows that an evolution's allocation count
//! does not grow with its step count.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use cavity_sim::lindblad::LindbladSystem;
use qudit_circuit::gates;
use qudit_core::density::DensityMatrix;
use qudit_core::radix::embed_operator;

thread_local! {
    static ALLOCATIONS: Cell<usize> = const { Cell::new(0) };
}

/// The system allocator, counting allocations made on the current thread.
struct Counting;

// SAFETY: every call is forwarded unchanged to `System`; the counter is a
// const-initialised thread-local `Cell` with no destructor, so touching it
// never allocates or re-enters the allocator.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let _ = ALLOCATIONS.try_with(|c| c.set(c.get() + 1));
        // SAFETY: the caller upholds `GlobalAlloc::alloc`'s contract.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System.alloc` above with this `layout`.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

fn allocations() -> usize {
    ALLOCATIONS.with(Cell::get)
}

/// Allocations made by one `steps`-step evolution of a two-mode reservoir.
fn loop_allocations(
    sys: &LindbladSystem,
    drive: Option<&qudit_core::matrix::CMatrix>,
    steps: usize,
) -> usize {
    let dims = sys.radix().dims().to_vec();
    let mut rho = DensityMatrix::zero(dims).unwrap();
    let dt = 0.01;
    let before = allocations();
    sys.evolve_with_drive(&mut rho, steps as f64 * dt, dt, drive).unwrap();
    allocations() - before
}

#[test]
fn rk4_loop_allocates_nothing_with_or_without_a_drive() {
    let d = 4;
    let a = gates::annihilation(d);
    let mut sys = LindbladSystem::new(vec![d, d]).unwrap();
    let hop = a.dagger().kron(&a);
    sys.add_hamiltonian_term(&(&hop + &hop.dagger()), &[0, 1], 1.0).unwrap();
    sys.add_hamiltonian_term(&gates::number_operator(d), &[1], 0.7).unwrap();
    sys.add_collapse(&a, &[0], 0.2).unwrap();
    sys.add_collapse(&a, &[1], 0.1).unwrap();
    let drive = embed_operator(sys.radix(), &(&a + &a.dagger()), &[0]).unwrap();

    for term in [None, Some(&drive)] {
        let short = loop_allocations(&sys, term, 3);
        let long = loop_allocations(&sys, term, 40);
        assert_eq!(short, long, "drive {}: allocations grew with steps", term.is_some());
    }
}
