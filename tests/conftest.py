from hypothesis import settings

# one policy for every property test: the same examples on every run, nothing
# read from or written to an example database, and no deadline unless a test sets one
settings.register_profile("reflectionless", derandomize=True, database=None, deadline=None)
settings.load_profile("reflectionless")
