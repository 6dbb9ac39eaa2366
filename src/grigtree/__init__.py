"""Exact computation with automorphisms of the binary rooted tree and
the closure of the Grigorchuk group.

The group acts on the right on finite 0/1 words; elements are lazy
self-similar objects exposing a root activity and two sections.
Portraits truncate that picture to finitely many activity bits, and the
closure of the group inside the automorphism group of the tree is cut
out by one local constraint on every depth-3 window of the portrait.
"""

from .tree import (
    Automorphism,
    Distance,
    IDENTITY,
    Portrait,
    PortraitSet,
    TruncationAutomorphism,
    activity,
    activity_rows,
    apply,
    check_vertex,
    compose,
    compose_all,
    distance,
    equal_to_depth,
    invert,
    portrait_of,
    section_at,
)
from .words import (
    ALPHABET,
    beta_from_counts,
    check_word,
    count,
    count_p,
    count_pq,
    decompose_word,
    reduce,
    section_words,
    word_element,
)
from .closure import (
    BetaProfile,
    CONSTRAINT_TABLE,
    ClosureVerdict,
    VerificationReport,
    WindowDecoration,
    beta_profile,
    complete_window,
    enumerate_admissible_decorations,
    free_bit_count,
    hausdorff_estimate,
    in_closure_up_to,
    portrait_closure_verdict,
    sample_closure_element,
    simulates_grigorchuk,
    window_at,
    verify_window_constraints,
    within_sixteenth_of_G,
)
from .automata import (
    MealyAutomaton,
    RecursionSystem,
    activity_profile,
    element_of,
    f_automaton,
    format_automaton,
    grigorchuk_automaton,
    is_bounded_automaton,
    k_word,
    kbar_element,
    parse_automaton,
    scattered_element,
)
from .oracle import (
    QuotientSet,
    enumerate_quotient,
    load_portrait_set,
    save_portrait_set,
)

__version__ = "0.1.0"
