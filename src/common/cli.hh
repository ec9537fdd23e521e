/**
 * @file
 * Command-line flag parser shared by the tools and examples.
 *
 * Accepts flags of the form --name=value and bare switches --name
 * (interpreted as boolean true). Positional arguments are kept in order.
 * A program declares the flags it reads: any other flag is fatal, and
 * --help prints the usage line plus the declared flags and exits 0.
 */

#ifndef UNIMEM_COMMON_CLI_HH
#define UNIMEM_COMMON_CLI_HH

#include <map>
#include <string>
#include <vector>

#include "common/types.hh"

namespace unimem {

/** One accepted flag, as --help lists it. */
struct CliFlag
{
    /** Flag name without the leading "--". */
    const char* name;

    /** Value placeholder such as "N" or "F"; "" for a bare switch. */
    const char* value;

    /** One-line description. */
    const char* help;
};

/** Parsed command line: --key=value flags plus positional arguments. */
class CliArgs
{
  public:
    /** Parse, then accept(@p usage, @p flags). */
    CliArgs(int argc, const char* const* argv, const std::string& usage,
            const std::vector<CliFlag>& flags);

    /**
     * Parse without validating. For programs whose flag set depends on
     * a positional argument: they call accept() once they know it.
     */
    CliArgs(int argc, const char* const* argv);

    /**
     * Validate against the declared @p flags: --help prints @p usage and
     * the flag list to stdout and exits 0; any undeclared flag is fatal.
     */
    void accept(const std::string& usage,
                const std::vector<CliFlag>& flags) const;

    bool has(const std::string& name) const;

    std::string getString(const std::string& name,
                          const std::string& dflt) const;
    long getInt(const std::string& name, long dflt) const;
    double getDouble(const std::string& name, double dflt) const;
    bool getBool(const std::string& name, bool dflt) const;

    /** getInt for counts and sizes: fatal unless in [0, 2^32). */
    u32 getCount(const std::string& name, u32 dflt) const;

    /**
     * getCount bounded to [@p lo, @p hi] when the flag is given (@p dflt
     * is not checked): fatal "flag --NAME expects LO to HI, got V".
     */
    u32 getCountIn(const std::string& name, u32 dflt, u32 lo, u32 hi) const;

    const std::vector<std::string>& positional() const { return positional_; }

  private:
    std::map<std::string, std::string> flags_;
    std::vector<std::string> positional_;
};

} // namespace unimem

#endif // UNIMEM_COMMON_CLI_HH
