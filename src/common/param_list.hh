/**
 * @file
 * Parameter structs declared from one field list.  CacheParams,
 * HierarchyParams and CoreParams each list their fields once, as
 * X(type, name, key tag, default...) entries, and take their body from
 * TRB_PARAM_FIELDS, so a field cannot exist outside its list.  The
 * store key (coreParamsKey) and its coverage test walk the lists.
 */

#ifndef TRB_COMMON_PARAM_LIST_HH
#define TRB_COMMON_PARAM_LIST_HH

#define TRB_PARAM_MEMBER(type, name, tag, ...) type name{__VA_ARGS__};
#define TRB_PARAM_VISIT(type, name, tag, ...)                             \
    if constexpr (sizeof(tag) > 1)                                        \
        fn(tag, self.name);

/**
 * A member per entry of @p LIST, in list order, and
 * forEachKeyedParam(self, fn), which calls fn(tag, self.field) for
 * every entry in turn.  An entry whose tag is "" is a label, not a
 * parameter: the walk skips it.
 */
#define TRB_PARAM_FIELDS(LIST)                                            \
    LIST(TRB_PARAM_MEMBER)                                                \
    template <typename Self, typename Fn>                                 \
    static void                                                           \
    forEachKeyedParam(Self &self, Fn &&fn)                                \
    {                                                                     \
        LIST(TRB_PARAM_VISIT)                                             \
    }

#endif // TRB_COMMON_PARAM_LIST_HH
