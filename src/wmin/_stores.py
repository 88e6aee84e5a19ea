"""Every store that `wmin` holds for the life of a process, and one way to
see and to empty them all.

    info()   {"module.name": (hits, misses, maxsize, currsize)}, one item per store
    clear()  empties every store

A store is a module-level object of `catalog`, `levels`, `characters` or
`gram_lab` with `cache_info()` and `cache_clear()`: the `lru_cache`s and
`characters._fns_cached`, whose `_held_windows` store copies that
interface.  The stores are found by walking each module's `vars()`, not
declared, so every request runs the same code; a store replaced in its
module (a spy) is not found while it is replaced.  The one store without
that interface, `characters._weights`, a dict emptied at `WEIGHT_CAP`, is
named here.  `tests/test_stores.py` checks what the walk cannot see: a
cache applied anywhere but to a module-level def of these modules, and a
module-level mutable container other than `_weights`.

The modules are imported when `info()` or `clear()` is called, not when
this one is."""


def _modules() -> tuple:
    """The modules that hold a store."""
    from . import catalog, characters, gram_lab, levels
    return catalog, levels, characters, gram_lab


def _found() -> list:
    """("module.name", store) of every store with `cache_info`, in module
    and definition order."""
    return [(f"{mod.__name__.rpartition('.')[2]}.{name}", obj)
            for mod in _modules() for name, obj in vars(mod).items()
            if hasattr(obj, "cache_info") and obj.__module__ == mod.__name__]


def info() -> dict:
    """{"module.name": (hits, misses, maxsize, currsize)} of every store;
    `characters._weights` counts no hits or misses: (None, None,
    WEIGHT_CAP, its size)."""
    from . import characters
    out = {name: tuple(store.cache_info()) for name, store in _found()}
    out["characters._weights"] = (None, None, characters.WEIGHT_CAP, len(characters._weights))
    return out


def clear() -> None:
    """Empties every store, and resets the counts of those that keep them."""
    from . import characters
    for _, store in _found():
        store.cache_clear()
    characters._weights.clear()
