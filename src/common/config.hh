/**
 * @file
 * Flat key=value configuration store.
 *
 * Examples and benches accept "key=value" command line overrides and
 * optional config files with one "key = value" pair per line ('#' starts
 * a comment). The harness maps keys onto SystemConfig fields.
 */

#ifndef INPG_COMMON_CONFIG_HH
#define INPG_COMMON_CONFIG_HH

#include <map>
#include <set>
#include <string>
#include <vector>

namespace inpg {

/**
 * String-keyed configuration with typed, defaulted getters.
 *
 * The store remembers which keys were read (through has() or any
 * getter), so a tool can reject leftover keys no code looked at --
 * typos like "mechansim=inpg" -- with requireAllRead() instead of
 * keeping a second list of valid keys by hand. The bookkeeping makes
 * the getters mutate the store: a Config is read from one thread.
 */
class Config
{
  public:
    Config() = default;

    /** Parse "key = value" lines from a string; later keys win. */
    void loadString(const std::string &text);

    /** Parse a config file; throws FatalError if unreadable. */
    void loadFile(const std::string &path);

    /**
     * Apply argv-style overrides. Three spellings are accepted and
     * behave identically:
     *
     *   key=value      classic assignment
     *   --key=value    GNU '=' form
     *   --key value    GNU space form (the next token is the value
     *                  unless it is itself a flag or an assignment)
     *
     * A dashed flag with no value ("--csv") sets "1", so boolean
     * switches read naturally. Dashes inside key names map to
     * underscores ("--trace-out" == "trace_out"). Tokens matching no
     * form are ignored; use the `known` overload to reject them.
     */
    void loadArgs(int argc, const char *const *argv);

    /**
     * Strict variant: every parsed key must appear in `known` and
     * every token must match one of the accepted forms; anything else
     * is fatal. Drivers pass their full key list so typos fail loudly
     * instead of silently running the default configuration.
     */
    void loadArgs(int argc, const char *const *argv,
                  const std::vector<std::string> &known);

    /** Set a single key. */
    void set(const std::string &key, const std::string &value);

    /** True if the key is present (and marks it read). */
    bool has(const std::string &key) const;

    std::string getString(const std::string &key,
                          const std::string &fallback = "") const;
    long long getInt(const std::string &key, long long fallback = 0) const;
    double getDouble(const std::string &key, double fallback = 0.0) const;
    bool getBool(const std::string &key, bool fallback = false) const;

    /** All keys in sorted order (for dumps). */
    std::vector<std::string> keys() const;

    /**
     * fatal() naming every present key that has() and the getters
     * never read. Call once all consumers have applied the config.
     */
    void requireAllRead() const;

  private:
    void parseArgs(int argc, const char *const *argv,
                   const std::vector<std::string> *known);

    /** Mark `key` read; returns its entry, or values.end(). */
    std::map<std::string, std::string>::const_iterator
    lookup(const std::string &key) const;

    std::map<std::string, std::string> values;
    mutable std::set<std::string> readKeys;
};

} // namespace inpg

#endif // INPG_COMMON_CONFIG_HH
